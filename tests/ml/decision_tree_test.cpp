#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace p4iot::ml {
namespace {

/// 1-D threshold problem: x > 50 → attack.
Dataset threshold_dataset(int n, std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset d;
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(0, 100);
    d.add({x}, x > 50 ? 1 : 0);
  }
  return d;
}

TEST(DecisionTree, LearnsSingleThreshold) {
  const auto train = threshold_dataset(500, 1);
  DecisionTree tree;
  tree.fit(train);
  ASSERT_TRUE(tree.trained());

  const auto test = threshold_dataset(200, 2);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i)
    correct += tree.predict(test.features[i]) == test.labels[i] ? 1 : 0;
  EXPECT_GT(correct, 195);
  // A single threshold needs exactly one split.
  EXPECT_EQ(tree.nodes().size(), 3u);
  EXPECT_NEAR(tree.nodes()[0].threshold, 50.0, 2.0);
}

TEST(DecisionTree, LearnsAxisAlignedRectangle) {
  // Attack iff x in [20,40] AND y in [60,80].
  common::Rng rng(3);
  Dataset d;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(0, 100), y = rng.uniform(0, 100);
    const int label = (x >= 20 && x <= 40 && y >= 60 && y <= 80) ? 1 : 0;
    d.add({x, y}, label);
  }
  DecisionTreeConfig config;
  config.max_depth = 6;
  DecisionTree tree(config);
  tree.fit(d);

  int correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i)
    correct += tree.predict(d.features[i]) == d.labels[i] ? 1 : 0;
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(d.size()), 0.97);
}

TEST(DecisionTree, RespectsMaxDepth) {
  const auto train = threshold_dataset(1000, 4);
  DecisionTreeConfig config;
  config.max_depth = 2;
  DecisionTree tree(config);
  tree.fit(train);
  EXPECT_LE(tree.depth(), 3);  // depth counts nodes; 2 splits + leaf level
}

TEST(DecisionTree, PureDataYieldsSingleLeaf) {
  Dataset d;
  for (int i = 0; i < 50; ++i) d.add({static_cast<double>(i)}, 0);
  DecisionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_TRUE(tree.nodes()[0].is_leaf());
  EXPECT_EQ(tree.predict(std::vector<double>{3.0}), 0);
  EXPECT_DOUBLE_EQ(tree.score(std::vector<double>{3.0}), 0.0);
}

TEST(DecisionTree, ScoreIsLeafProbability) {
  // 75% attack above threshold, 0% below.
  Dataset d;
  for (int i = 0; i < 100; ++i) d.add({10.0 + (i % 10)}, 0);
  for (int i = 0; i < 100; ++i) d.add({90.0 + (i % 10)}, i % 4 != 0 ? 1 : 0);
  DecisionTreeConfig config;
  config.max_depth = 1;
  DecisionTree tree(config);
  tree.fit(d);
  EXPECT_NEAR(tree.score(std::vector<double>{95.0}), 0.75, 0.01);
  EXPECT_NEAR(tree.score(std::vector<double>{15.0}), 0.0, 0.01);
}

TEST(DecisionTree, MinSamplesLeafEnforced) {
  const auto train = threshold_dataset(100, 5);
  DecisionTreeConfig config;
  config.min_samples_leaf = 20;
  DecisionTree tree(config);
  tree.fit(train);
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf()) {
      EXPECT_GE(node.samples, 20u);
    }
  }
}

TEST(DecisionTree, ConstantFeaturesYieldLeaf) {
  Dataset d;
  for (int i = 0; i < 40; ++i) d.add({5.0, 5.0}, i % 2);
  DecisionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_NEAR(tree.nodes()[0].attack_probability, 0.5, 1e-9);
}

TEST(DecisionTree, EmptyFitIsSafe) {
  DecisionTree tree;
  tree.fit({});
  EXPECT_FALSE(tree.trained());
  EXPECT_EQ(tree.predict(std::vector<double>{1.0}), 0);
  EXPECT_EQ(tree.leaf_index(std::vector<double>{1.0}), -1);
}

TEST(DecisionTree, LeafIndexConsistentWithPredict) {
  const auto train = threshold_dataset(300, 6);
  DecisionTree tree;
  tree.fit(train);
  for (double x : {5.0, 45.0, 55.0, 95.0}) {
    const std::vector<double> sample{x};
    const int leaf = tree.leaf_index(sample);
    ASSERT_GE(leaf, 0);
    EXPECT_EQ(tree.nodes()[static_cast<std::size_t>(leaf)].label(), tree.predict(sample));
  }
}

TEST(DecisionTree, NodeInvariants) {
  const auto train = threshold_dataset(500, 7);
  DecisionTreeConfig config;
  config.max_depth = 5;
  DecisionTree tree(config);
  tree.fit(train);
  const auto& nodes = tree.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& n = nodes[i];
    EXPECT_GE(n.attack_probability, 0.0);
    EXPECT_LE(n.attack_probability, 1.0);
    if (!n.is_leaf()) {
      // Children appear after the parent and within bounds.
      EXPECT_GT(n.left, static_cast<int>(i));
      EXPECT_GT(n.right, static_cast<int>(i));
      EXPECT_LT(n.left, static_cast<int>(nodes.size()));
      EXPECT_LT(n.right, static_cast<int>(nodes.size()));
      // Child sample counts sum to the parent's.
      EXPECT_EQ(nodes[static_cast<std::size_t>(n.left)].samples +
                    nodes[static_cast<std::size_t>(n.right)].samples,
                n.samples);
    }
  }
  EXPECT_EQ(nodes[0].samples, train.size());
}

TEST(DecisionTree, DeterministicForSeed) {
  const auto train = threshold_dataset(400, 8);
  DecisionTree a, b;
  a.fit(train);
  b.fit(train);
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    EXPECT_EQ(a.nodes()[i].feature, b.nodes()[i].feature);
    EXPECT_DOUBLE_EQ(a.nodes()[i].threshold, b.nodes()[i].threshold);
  }
}

}  // namespace
}  // namespace p4iot::ml
