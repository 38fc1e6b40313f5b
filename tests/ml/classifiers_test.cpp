// Shared behavioural tests over every baseline classifier (parameterized),
// plus model-specific checks.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "common/rng.h"
#include "ml/fixed_field.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/mlp_classifier.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"

namespace p4iot::ml {
namespace {

/// Linearly separable blobs in 4-D (two informative dims, two noise dims).
Dataset blob_dataset(int n, std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset d;
  for (int i = 0; i < n; ++i) {
    const int label = i % 2;
    const double c = label ? 80.0 : 20.0;
    d.add({rng.normal(c, 8.0), rng.normal(c, 8.0), rng.uniform(0, 100),
           rng.uniform(0, 100)},
          label);
  }
  return d;
}

using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

struct NamedFactory {
  std::string name;
  ClassifierFactory make;
};

// gtest appends the printed parameter to each test name. Print the name,
// not the default byte dump, which holds heap and code addresses and so
// changes the test list from build to build.
void PrintTo(const NamedFactory& factory, std::ostream* os) { *os << factory.name; }

class ClassifierBehaviour : public ::testing::TestWithParam<NamedFactory> {};

TEST_P(ClassifierBehaviour, LearnsSeparableBlobs) {
  auto clf = GetParam().make();
  const auto train = blob_dataset(600, 1);
  clf->fit(train);

  const auto test = blob_dataset(300, 2);
  const auto predictions = predict_all(*clf, test);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i)
    correct += predictions[i] == test.labels[i] ? 1 : 0;
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.size()), 0.9)
      << GetParam().name;
}

TEST_P(ClassifierBehaviour, ScoresInUnitInterval) {
  auto clf = GetParam().make();
  clf->fit(blob_dataset(300, 3));
  const auto test = blob_dataset(100, 4);
  for (const auto& row : test.features) {
    const double s = clf->score(row);
    EXPECT_GE(s, 0.0) << GetParam().name;
    EXPECT_LE(s, 1.0) << GetParam().name;
  }
}

TEST_P(ClassifierBehaviour, ScoresCorrelateWithClass) {
  auto clf = GetParam().make();
  clf->fit(blob_dataset(600, 5));
  const auto test = blob_dataset(200, 6);
  double attack_mean = 0.0, benign_mean = 0.0;
  std::size_t n_attack = 0, n_benign = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (test.labels[i]) {
      attack_mean += clf->score(test.features[i]);
      ++n_attack;
    } else {
      benign_mean += clf->score(test.features[i]);
      ++n_benign;
    }
  }
  EXPECT_GT(attack_mean / static_cast<double>(n_attack),
            benign_mean / static_cast<double>(n_benign))
      << GetParam().name;
}

TEST_P(ClassifierBehaviour, HasName) {
  EXPECT_FALSE(GetParam().make()->name().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, ClassifierBehaviour,
    ::testing::Values(
        NamedFactory{"decision_tree",
                     [] { return std::make_unique<DecisionTree>(); }},
        NamedFactory{"random_forest",
                     [] {
                       RandomForestConfig c;
                       c.num_trees = 9;
                       return std::make_unique<RandomForest>(c);
                     }},
        NamedFactory{"linear_svm", [] { return std::make_unique<LinearSvm>(); }},
        NamedFactory{"logistic",
                     [] { return std::make_unique<LogisticRegression>(); }},
        NamedFactory{"knn", [] { return std::make_unique<KnnClassifier>(); }},
        NamedFactory{"naive_bayes",
                     [] { return std::make_unique<GaussianNaiveBayes>(); }},
        NamedFactory{"mlp",
                     [] {
                       nn::MlpConfig c;
                       c.hidden_sizes = {16};
                       c.epochs = 20;
                       return std::make_unique<MlpClassifier>(c);
                     }}),
    [](const auto& info) { return info.param.name; });

TEST(RandomForest, OutperformsSingleTreeOnNoisyData) {
  // Noisy XOR-ish data where bagging helps stability.
  common::Rng rng(7);
  Dataset train, test;
  auto fill = [&](Dataset& d, int n) {
    for (int i = 0; i < n; ++i) {
      const double x = rng.uniform(0, 1), y = rng.uniform(0, 1);
      int label = (x > 0.5) != (y > 0.5) ? 1 : 0;
      if (rng.chance(0.1)) label ^= 1;  // 10% label noise
      d.add({x, y}, label);
    }
  };
  fill(train, 500);
  fill(test, 300);

  RandomForestConfig config;
  config.num_trees = 15;
  RandomForest forest(config);
  forest.fit(train);
  EXPECT_EQ(forest.tree_count(), 15u);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i)
    correct += forest.predict(test.features[i]) == test.labels[i] ? 1 : 0;
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.size()), 0.8);
}

TEST(LinearSvm, MarginSignMatchesPrediction) {
  LinearSvm svm;
  svm.fit(blob_dataset(300, 8));
  const auto test = blob_dataset(50, 9);
  for (const auto& row : test.features)
    EXPECT_EQ(svm.predict(row), svm.margin(row) >= 0 ? 1 : 0);
}

TEST(Knn, ReferenceSetCapped) {
  KnnConfig config;
  config.max_reference = 100;
  KnnClassifier knn(config);
  knn.fit(blob_dataset(500, 10));
  EXPECT_EQ(knn.reference_size(), 100u);
}

TEST(NaiveBayes, SingleClassTrainingIsSafe) {
  Dataset d;
  for (int i = 0; i < 20; ++i) d.add({1.0, 2.0}, 0);
  GaussianNaiveBayes nb;
  nb.fit(d);
  EXPECT_EQ(nb.predict(std::vector<double>{1.0, 2.0}), 0);
  EXPECT_DOUBLE_EQ(nb.score(std::vector<double>{1.0, 2.0}), 0.0);
}

TEST(FixedField, ColumnsMatchIpv4Layout) {
  const auto cols = openflow_field_columns();
  EXPECT_EQ(cols.size(), 13u);
  EXPECT_EQ(cols[0], 23u);   // ipv4.protocol
  EXPECT_EQ(cols[1], 26u);   // ipv4.src[0]
  EXPECT_EQ(cols[5], 30u);   // ipv4.dst[0]
  EXPECT_EQ(cols[9], 34u);   // l4 src port
}

TEST(FixedField, LearnsPortBasedRule) {
  // Byte 37 (dst port low byte) decides the label; other bytes random.
  common::Rng rng(11);
  Dataset d;
  for (int i = 0; i < 600; ++i) {
    std::vector<double> row(64);
    for (auto& v : row) v = static_cast<double>(rng.next_below(256));
    const int label = i % 2;
    // Must look like Ethernet/IPv4 to pass the baseline's fixed parser.
    row[12] = 0x08; row[13] = 0x00; row[14] = 0x45;
    row[36] = 0.0;
    row[37] = label ? 23.0 : 187.0;  // telnet vs the low byte of 443 (0x01bb)
    d.add(std::move(row), label);
  }
  FixedFieldBaseline baseline;
  baseline.fit(d);
  int correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    correct += baseline.predict(d.features[i]) == d.labels[i] ? 1 : 0;
  EXPECT_GT(correct, 590);
}

TEST(FixedField, BlindToNonTupleBytes) {
  // The discriminative byte (47, tcp.flags) is OUTSIDE the 5-tuple columns:
  // the fixed-field baseline must fail while a full tree succeeds.
  common::Rng rng(12);
  Dataset d;
  for (int i = 0; i < 600; ++i) {
    std::vector<double> row(64, 0.0);
    row[12] = 0x08; row[13] = 0x00; row[14] = 0x45;  // parseable IPv4
    const int label = i % 2;
    row[47] = label ? 2.0 : 16.0;
    d.add(std::move(row), label);
  }
  FixedFieldBaseline baseline;
  baseline.fit(d);
  int baseline_correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    baseline_correct += baseline.predict(d.features[i]) == d.labels[i] ? 1 : 0;
  // All 5-tuple bytes constant → majority-class behaviour (~50%).
  EXPECT_LT(baseline_correct, 360);

  DecisionTree tree;
  tree.fit(d);
  int tree_correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    tree_correct += tree.predict(d.features[i]) == d.labels[i] ? 1 : 0;
  EXPECT_EQ(tree_correct, 600);
}

TEST(FixedField, FailsOpenOnUnparseableFrames) {
  // Train on parseable IPv4 rows where byte 23 decides, then present a
  // non-IPv4 frame with the same "attack" byte: the fixed parser cannot
  // extract a 5-tuple, so the verdict must be benign (pass-through).
  Dataset d;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> row(64, 0.0);
    row[12] = 0x08; row[13] = 0x00; row[14] = 0x45;
    const int label = i % 2;
    row[23] = label ? 6.0 : 17.0;
    d.add(std::move(row), label);
  }
  FixedFieldBaseline baseline;
  baseline.fit(d);

  std::vector<double> attack_ip(64, 0.0);
  attack_ip[12] = 0x08; attack_ip[13] = 0x00; attack_ip[14] = 0x45;
  attack_ip[23] = 6.0;
  EXPECT_EQ(baseline.predict(attack_ip), 1);

  std::vector<double> attack_zigbee(64, 0.0);
  attack_zigbee[0] = 0x88; attack_zigbee[1] = 0x41;  // 802.15.4 frame control
  attack_zigbee[23] = 6.0;
  EXPECT_EQ(baseline.predict(attack_zigbee), 0);
  EXPECT_DOUBLE_EQ(baseline.score(attack_zigbee), 0.0);
}

TEST(MlpClassifier, AutoScalesByteFeatures) {
  // Byte-range features (0..255) must be internally rescaled; training on
  // them should still work.
  MlpClassifier clf(nn::MlpConfig{.hidden_sizes = {8}, .epochs = 20});
  const auto train = blob_dataset(400, 13);
  clf.fit(train);
  const auto test = blob_dataset(200, 14);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i)
    correct += clf.predict(test.features[i]) == test.labels[i] ? 1 : 0;
  EXPECT_GT(correct, 180);
}

}  // namespace
}  // namespace p4iot::ml
