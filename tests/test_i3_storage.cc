// Unit tests of I3's storage components: signature files, the keyword-cell
// data file, and the head file of summary nodes.

#include <gtest/gtest.h>

#include "i3/data_file.h"
#include "i3/head_file.h"
#include "i3/signature.h"

namespace i3 {
namespace {

TEST(SignatureTest, SetAndTestBits) {
  Signature sig(300);
  EXPECT_TRUE(sig.IsZero());
  sig.Add(7);
  sig.Add(307);  // 307 % 300 == 7: same bit
  EXPECT_TRUE(sig.MayContain(7));
  EXPECT_TRUE(sig.MayContain(307));
  EXPECT_FALSE(sig.MayContain(8));
  EXPECT_EQ(sig.PopCount(), 1u);
}

TEST(SignatureTest, PaperExample) {
  // Section 5.3's worked example: eta = 4, H(id) = id % 4; "restaurant" in
  // C4 contains {d4, d7, d8} -> signature 1001 (bits 0 and 3).
  Signature sig(4);
  sig.Add(4);
  sig.Add(7);
  sig.Add(8);
  EXPECT_EQ(sig.ToString(), "1001");
}

TEST(SignatureTest, IntersectAndUnion) {
  Signature a(64), b(64);
  a.Add(1);
  a.Add(2);
  b.Add(2);
  b.Add(3);
  EXPECT_TRUE(a.Intersects(b));
  Signature c = a;
  c.IntersectWith(b);
  EXPECT_TRUE(c.MayContain(2));
  EXPECT_FALSE(c.MayContain(1));
  EXPECT_EQ(c.PopCount(), 1u);
  Signature u = a;
  u.UnionWith(b);
  EXPECT_EQ(u.PopCount(), 3u);

  Signature d(64);
  d.Add(40);
  EXPECT_FALSE(a.Intersects(d));
}

TEST(SignatureTest, SizeBytes) {
  EXPECT_EQ(Signature(300).SizeBytes(), 38u);
  EXPECT_EQ(Signature(8).SizeBytes(), 1u);
  EXPECT_EQ(Signature(9).SizeBytes(), 2u);
}

TEST(DataFileTest, CapacityFollowsPaperSetting) {
  DataFile df;  // P = 4KB, B = 32
  EXPECT_EQ(df.capacity(), 128u);
  DataFile small(256);
  EXPECT_EQ(small.capacity(), 8u);
}

TEST(DataFileTest, InsertReadRemove) {
  DataFile df(256);  // capacity 8
  auto page = df.PageWithFreeSlots(1);
  ASSERT_TRUE(page.ok());
  const PageId p = page.ValueOrDie();

  const SpatialTuple t1{/*term=*/5, /*doc=*/10, {1.5, 2.5}, 0.7f};
  const SpatialTuple t2{/*term=*/5, /*doc=*/11, {3.0, 4.0}, 0.3f};
  ASSERT_TRUE(df.Insert(p, /*source=*/1, t1).ok());
  ASSERT_TRUE(df.Insert(p, /*source=*/2, t2).ok());
  EXPECT_EQ(df.FreeSlots(p), 6u);

  auto read = df.Read(p);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.ValueOrDie().slots.size(), 2u);
  EXPECT_EQ(read.ValueOrDie().CountSource(1), 1u);
  EXPECT_EQ(read.ValueOrDie().slots[0].source, 1u);
  EXPECT_EQ(read.ValueOrDie().slots[0].tuple, t1);
  auto edit = df.Load(p);
  ASSERT_TRUE(edit.ok());
  EXPECT_EQ(df.CellSize(edit.ValueOrDie(), 1).ValueOrDie(), 1u);
  EXPECT_EQ(df.CellSize(edit.ValueOrDie(), 2).ValueOrDie(), 1u);
  EXPECT_EQ(df.CellSize(edit.ValueOrDie(), 3).ValueOrDie(), 0u);

  auto removed = df.Remove(p, 1, 10);
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(removed.ValueOrDie());
  auto removed_again = df.Remove(p, 1, 10);
  ASSERT_TRUE(removed_again.ok());
  EXPECT_FALSE(removed_again.ValueOrDie());
  EXPECT_EQ(df.FreeSlots(p), 7u);
}

TEST(DataFileTest, FullPageRejectsInsert) {
  DataFile df(256);
  auto page = df.PageWithFreeSlots(8);
  ASSERT_TRUE(page.ok());
  const PageId p = page.ValueOrDie();
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        df.Insert(p, 1, {1, i, {double(i), 0.0}, 0.5f}).ok());
  }
  EXPECT_EQ(df.FreeSlots(p), 0u);
  auto st = df.Insert(p, 1, {1, 99, {0, 0}, 0.5f});
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // A fresh request gets a different page.
  auto other = df.PageWithFreeSlots(1);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other.ValueOrDie(), p);
}

TEST(DataFileTest, TakeCellMovesCell) {
  DataFile df(256);
  const PageId p = df.PageWithFreeSlots(4).ValueOrDie();
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(df.Insert(p, 7, {1, i, {double(i), 0.0}, 0.5f}).ok());
  }
  ASSERT_TRUE(df.Insert(p, 8, {2, 50, {9, 9}, 0.9f}).ok());
  auto edit = df.Load(p);
  ASSERT_TRUE(edit.ok());
  auto taken = df.TakeCell(&edit.ValueOrDie(), 7);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken.ValueOrDie().size(), 3u);
  EXPECT_EQ(df.FreeSlots(p), 4u);  // the map moves only on Store
  ASSERT_TRUE(df.Store(edit.ValueOrDie()).ok());
  EXPECT_EQ(df.FreeSlots(p), 7u);
  // Move the cell to another page.
  const PageId p2 = df.PageWithFreeSlots(4).ValueOrDie();
  ASSERT_TRUE(df.InsertAll(p2, 7, taken.ValueOrDie()).ok());
  auto read = df.Read(p2);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.ValueOrDie().CountSource(7), 3u);
}

TEST(DataFileTest, RoundTripPreservesTupleBytes) {
  DataFile df(256);
  const PageId p = df.PageWithFreeSlots(1).ValueOrDie();
  const SpatialTuple t{123456, 987654, {-73.98765, 40.12345}, 0.8125f};
  ASSERT_TRUE(df.Insert(p, 42, t).ok());
  auto read = df.Read(p);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.ValueOrDie().slots.size(), 1u);
  EXPECT_EQ(read.ValueOrDie().slots[0].source, 42u);
  EXPECT_EQ(read.ValueOrDie().slots[0].tuple, t);
}

TEST(HeadFileTest, AllocateAndUpdate) {
  HeadFile head(64);
  const NodeId n = head.Allocate();
  EXPECT_EQ(head.NodeCount(), 1u);
  SummaryNode* node = head.Mutate(n);
  node->self.Add(5, 0.5f);
  node->child_summary[2].Add(5, 0.5f);
  node->child[2] = ChildRef::ToPage(3, 9);

  const SummaryNode& r = head.Read(n);
  EXPECT_TRUE(r.self.sig.MayContain(5));
  EXPECT_FLOAT_EQ(r.self.max_s, 0.5f);
  EXPECT_EQ(r.child[2].kind, ChildRef::Kind::kPage);
  EXPECT_EQ(r.child[2].page, 3u);
  EXPECT_EQ(r.child[2].source, 9u);
  EXPECT_GT(head.io_stats().reads(IoCategory::kI3HeadFile), 0u);
}

TEST(HeadFileTest, RebuildSelfMergesChildren) {
  HeadFile head(64);
  const NodeId n = head.Allocate();
  SummaryNode* node = head.Mutate(n);
  node->child_summary[0].Add(1, 0.3f);
  node->child_summary[3].Add(2, 0.9f);
  node->RebuildSelf();
  EXPECT_TRUE(node->self.sig.MayContain(1));
  EXPECT_TRUE(node->self.sig.MayContain(2));
  EXPECT_FLOAT_EQ(node->self.max_s, 0.9f);
}

TEST(HeadFileTest, NodeBytesScaleWithEta) {
  HeadFile small(64), large(512);
  EXPECT_LT(small.NodeBytes(), large.NodeBytes());
  // 5 entries of (sig + float) plus 4 child pointers.
  EXPECT_EQ(small.NodeBytes(), 5 * (8 + 4) + 4 * 9u);
  small.Allocate();
  small.Allocate();
  EXPECT_EQ(small.SizeBytes(), 2 * small.NodeBytes());
}

}  // namespace
}  // namespace i3
