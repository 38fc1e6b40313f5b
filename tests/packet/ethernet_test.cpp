#include "packet/ethernet.h"

#include <gtest/gtest.h>

namespace p4iot::pkt {
namespace {

TcpFrameSpec sample_tcp_spec() {
  TcpFrameSpec spec;
  spec.eth_src = MacAddress::from_u64(0x020000000002);
  spec.eth_dst = MacAddress::from_u64(0x020000000001);
  spec.ip_src = Ipv4Address::from_octets(10, 0, 0, 10);
  spec.ip_dst = Ipv4Address::from_octets(52, 1, 2, 3);
  spec.src_port = 44123;
  spec.dst_port = 443;
  spec.seq = 0x11223344;
  spec.ack = 0x55667788;
  spec.flags = kTcpAck | kTcpPsh;
  spec.window = 29200;
  spec.ttl = 64;
  spec.ip_id = 0x1a2b;
  spec.payload = {0xde, 0xad, 0xbe, 0xef};
  return spec;
}

TEST(Ethernet, TcpFrameRoundTrip) {
  const auto frame = build_tcp_frame(sample_tcp_spec());
  ASSERT_EQ(frame.size(), kOffL4 + kTcpHeaderLen + 4);

  const auto eth = parse_ethernet(frame);
  ASSERT_TRUE(eth.has_value());
  EXPECT_EQ(eth->ethertype, kEtherTypeIpv4);
  EXPECT_EQ(eth->src.to_u64(), 0x020000000002ULL);
  EXPECT_EQ(eth->dst.to_u64(), 0x020000000001ULL);

  const auto ip = parse_ipv4(frame);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->protocol, kIpProtoTcp);
  EXPECT_EQ(ip->ttl, 64);
  EXPECT_EQ(ip->src.str(), "10.0.0.10");
  EXPECT_EQ(ip->dst.str(), "52.1.2.3");
  EXPECT_EQ(ip->total_length, kIpv4HeaderLen + kTcpHeaderLen + 4);
  EXPECT_EQ(ip->identification, 0x1a2b);

  const auto tcp = parse_tcp(frame);
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->src_port, 44123);
  EXPECT_EQ(tcp->dst_port, 443);
  EXPECT_EQ(tcp->seq, 0x11223344u);
  EXPECT_EQ(tcp->ack, 0x55667788u);
  EXPECT_EQ(tcp->flags, kTcpAck | kTcpPsh);
  EXPECT_EQ(tcp->window, 29200);
}

TEST(Ethernet, Ipv4ChecksumValid) {
  const auto frame = build_tcp_frame(sample_tcp_spec());
  EXPECT_TRUE(verify_ipv4_checksum(frame));
}

TEST(Ethernet, Ipv4ChecksumDetectsCorruption) {
  auto frame = build_tcp_frame(sample_tcp_spec());
  frame[kOffIpv4 + 8] ^= 0xff;  // flip TTL
  EXPECT_FALSE(verify_ipv4_checksum(frame));
}

TEST(Ethernet, UdpFrameRoundTrip) {
  UdpFrameSpec spec;
  spec.ip_src = Ipv4Address::from_octets(10, 0, 0, 11);
  spec.ip_dst = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.src_port = 50000;
  spec.dst_port = 53;
  spec.payload = common::ByteBuffer(100, 0x41);
  const auto frame = build_udp_frame(spec);

  const auto udp = parse_udp(frame);
  ASSERT_TRUE(udp.has_value());
  EXPECT_EQ(udp->src_port, 50000);
  EXPECT_EQ(udp->dst_port, 53);
  EXPECT_EQ(udp->length, kUdpHeaderLen + 100);
  EXPECT_EQ(l4_payload(frame).size(), 100u);
  EXPECT_EQ(l4_payload(frame)[0], 0x41);
}

TEST(Ethernet, IcmpFrameRoundTrip) {
  IcmpFrameSpec spec;
  spec.type = 8;
  spec.code = 0;
  spec.ident = 0x1234;
  spec.sequence = 7;
  spec.payload = {1, 2, 3};
  const auto frame = build_icmp_frame(spec);
  const auto icmp = parse_icmp(frame);
  ASSERT_TRUE(icmp.has_value());
  EXPECT_EQ(icmp->type, 8);
  EXPECT_EQ(icmp->code, 0);
  EXPECT_EQ(l4_payload(frame).size(), 3u);
}

TEST(Ethernet, ParseRejectsTruncatedFrames) {
  const auto frame = build_tcp_frame(sample_tcp_spec());
  for (const std::size_t cut : {0UL, 5UL, 13UL, 20UL, 33UL, 40UL}) {
    const std::span<const std::uint8_t> truncated(frame.data(), cut);
    if (cut < kEthHeaderLen) {
      EXPECT_FALSE(parse_ethernet(truncated).has_value());
    }
    if (cut < kOffL4) {
      EXPECT_FALSE(parse_ipv4(truncated).has_value());
    }
    EXPECT_FALSE(parse_tcp(truncated).has_value());
  }
}

TEST(Ethernet, ParseTcpRejectsUdpFrame) {
  UdpFrameSpec spec;
  spec.src_port = 1;
  spec.dst_port = 2;
  const auto frame = build_udp_frame(spec);
  EXPECT_FALSE(parse_tcp(frame).has_value());
  EXPECT_TRUE(parse_udp(frame).has_value());
  EXPECT_FALSE(parse_icmp(frame).has_value());
}

TEST(Ethernet, ParseIpv4RejectsNonIpEthertype) {
  auto frame = build_tcp_frame(sample_tcp_spec());
  common::write_be16(frame, 12, kEtherTypeArp);
  EXPECT_FALSE(parse_ipv4(frame).has_value());
}

TEST(Ethernet, ParseIpv4RejectsOptionsHeader) {
  auto frame = build_tcp_frame(sample_tcp_spec());
  frame[kOffIpv4] = 0x46;  // IHL 6 (options present) — unsupported layout
  EXPECT_FALSE(parse_ipv4(frame).has_value());
}

TEST(Ethernet, TransportChecksumsNonZero) {
  // Sanity: checksums were actually computed (zero is astronomically rare
  // for these fixed vectors).
  const auto tcp_frame = build_tcp_frame(sample_tcp_spec());
  EXPECT_NE(parse_tcp(tcp_frame)->checksum, 0);
}

TEST(MacAddress, U64RoundTripAndFormat) {
  const auto mac = MacAddress::from_u64(0xdeadbeef0102ULL);
  EXPECT_EQ(mac.to_u64(), 0xdeadbeef0102ULL);
  EXPECT_EQ(mac.str(), "de:ad:be:ef:01:02");
}

TEST(Ipv4Address, OctetsAndFormat) {
  const auto ip = Ipv4Address::from_octets(192, 168, 1, 42);
  EXPECT_EQ(ip.value, 0xc0a8012au);
  EXPECT_EQ(ip.str(), "192.168.1.42");
}

}  // namespace
}  // namespace p4iot::pkt
