#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "gtest/gtest.h"
#include "metadata/metadata_db.h"
#include "test_util.h"

namespace mistique {
namespace {

TEST(ColumnKeyTest, ParsesFourParts) {
  ASSERT_OK_AND_ASSIGN(ColumnKey key,
                       ParseColumnKey("zillow.P1_v0.x_train.taxamount"));
  EXPECT_EQ(key.project, "zillow");
  EXPECT_EQ(key.model, "P1_v0");
  EXPECT_EQ(key.intermediate, "x_train");
  EXPECT_EQ(key.column, "taxamount");
  EXPECT_EQ(key.ToString(), "zillow.P1_v0.x_train.taxamount");
}

TEST(ColumnKeyTest, ColumnMayContainDots) {
  ASSERT_OK_AND_ASSIGN(ColumnKey key, ParseColumnKey("p.m.i.col.with.dots"));
  EXPECT_EQ(key.column, "col.with.dots");
}

TEST(ColumnKeyTest, RejectsMalformed) {
  EXPECT_FALSE(ParseColumnKey("only.three.parts").ok());
  EXPECT_FALSE(ParseColumnKey("").ok());
  EXPECT_FALSE(ParseColumnKey("a.b.c.").ok());
  EXPECT_FALSE(ParseColumnKey("..c.d").ok());
}

TEST(MetadataDbTest, RegisterAndFind) {
  MetadataDb db;
  ASSERT_OK_AND_ASSIGN(ModelId id,
                       db.RegisterModel("zillow", "P1_v0", ModelKind::kTrad));
  EXPECT_NE(id, kInvalidModelId);
  ASSERT_OK_AND_ASSIGN(ModelId found, db.FindModel("zillow", "P1_v0"));
  EXPECT_EQ(found, id);
  EXPECT_FALSE(db.FindModel("zillow", "missing").ok());
  EXPECT_EQ(db.RegisterModel("zillow", "P1_v0", ModelKind::kTrad)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(MetadataDbTest, SameNameDifferentProjectsAllowed) {
  MetadataDb db;
  ASSERT_OK(db.RegisterModel("p1", "model", ModelKind::kTrad).status());
  ASSERT_OK(db.RegisterModel("p2", "model", ModelKind::kDnn).status());
  EXPECT_EQ(db.num_models(), 2u);
}

TEST(MetadataDbTest, IntermediateLookup) {
  MetadataDb db;
  ASSERT_OK_AND_ASSIGN(ModelId id,
                       db.RegisterModel("proj", "m", ModelKind::kDnn));
  ASSERT_OK_AND_ASSIGN(ModelInfo * model, db.GetModel(id));
  IntermediateInfo interm;
  interm.name = "layer3";
  interm.num_rows = 100;
  model->intermediates.push_back(interm);

  ASSERT_OK_AND_ASSIGN(IntermediateInfo * found,
                       db.FindIntermediate(id, "layer3"));
  EXPECT_EQ(found->num_rows, 100u);
  EXPECT_FALSE(db.FindIntermediate(id, "layer9").ok());
}

TEST(MetadataDbTest, ResolveColumn) {
  MetadataDb db;
  ASSERT_OK_AND_ASSIGN(ModelId id,
                       db.RegisterModel("proj", "m", ModelKind::kTrad));
  ASSERT_OK_AND_ASSIGN(ModelInfo * model, db.GetModel(id));
  IntermediateInfo interm;
  interm.name = "x_train";
  ColumnInfo col;
  col.name = "price";
  interm.columns.push_back(col);
  model->intermediates.push_back(interm);

  ASSERT_OK_AND_ASSIGN(ColumnKey key, ParseColumnKey("proj.m.x_train.price"));
  ASSERT_OK_AND_ASSIGN(MetadataDb::ColumnHandle handle,
                       db.ResolveColumn(key));
  EXPECT_EQ(handle.model, id);
  EXPECT_EQ(handle.intermediate_index, 0u);
  EXPECT_EQ(handle.column_index, 0u);

  ASSERT_OK_AND_ASSIGN(ColumnKey bad_col,
                       ParseColumnKey("proj.m.x_train.missing"));
  EXPECT_FALSE(db.ResolveColumn(bad_col).ok());
  ASSERT_OK_AND_ASSIGN(ColumnKey bad_interm,
                       ParseColumnKey("proj.m.missing.price"));
  EXPECT_FALSE(db.ResolveColumn(bad_interm).ok());
}

TEST(MetadataDbTest, NoteQueryIncrements) {
  MetadataDb db;
  ASSERT_OK_AND_ASSIGN(ModelId id,
                       db.RegisterModel("proj", "m", ModelKind::kTrad));
  ASSERT_OK_AND_ASSIGN(ModelInfo * model, db.GetModel(id));
  IntermediateInfo interm;
  interm.name = "pred";
  model->intermediates.push_back(interm);
  ASSERT_OK(db.NoteQuery(id, "pred"));
  ASSERT_OK(db.NoteQuery(id, "pred"));
  ASSERT_OK_AND_ASSIGN(const IntermediateInfo* found,
                       std::as_const(db).FindIntermediate(id, "pred"));
  EXPECT_EQ(found->n_query, 2u);
}

TEST(MetadataDbTest, ListModelsSorted) {
  MetadataDb db;
  ASSERT_OK(db.RegisterModel("p", "a", ModelKind::kTrad).status());
  ASSERT_OK(db.RegisterModel("p", "b", ModelKind::kTrad).status());
  ASSERT_OK(db.RegisterModel("p", "c", ModelKind::kTrad).status());
  const auto ids = db.ListModels();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_LT(ids[0], ids[1]);
  EXPECT_LT(ids[1], ids[2]);
}

TEST(IntermediateInfoTest, NumRowBlocks) {
  IntermediateInfo interm;
  interm.num_rows = 2500;
  interm.row_block_size = 1024;
  EXPECT_EQ(interm.NumRowBlocks(), 3u);
  interm.num_rows = 1024;
  EXPECT_EQ(interm.NumRowBlocks(), 1u);
  interm.num_rows = 0;
  EXPECT_EQ(interm.NumRowBlocks(), 0u);
}

TEST(IntermediateInfoTest, EmptyVectorsRoundTrip) {
  // An unquantized, unmaterialized entry: every catalog vector is empty,
  // so loading copies zero bytes into a null data() pointer.
  IntermediateInfo interm;
  interm.name = "layer1";
  ColumnInfo col;
  col.name = "c0";
  interm.columns.push_back(col);
  ByteWriter w;
  SaveIntermediateInfo(&w, interm);
  ByteReader r(w.bytes());
  IntermediateInfo out;
  ASSERT_OK(LoadIntermediateInfo(&r, &out));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(out.name, "layer1");
  EXPECT_TRUE(out.recon.centers.empty());
  EXPECT_TRUE(out.edges.empty());
  ASSERT_EQ(out.columns.size(), 1u);
  EXPECT_TRUE(out.columns[0].chunks.empty());
  EXPECT_TRUE(out.columns[0].chunk_min.empty());
  EXPECT_TRUE(out.columns[0].chunk_max.empty());
}

TEST(IntermediateInfoTest, CorruptVectorCountIsRejectedBeforeAllocating) {
  IntermediateInfo interm;
  interm.name = "layer1";
  interm.recon.centers = {1.0};
  ByteWriter w;
  SaveIntermediateInfo(&w, interm);
  // Locate recon.centers on disk: its u64 count 1, then 1.0's bits.
  ByteWriter pattern;
  pattern.PutU64(1);
  pattern.PutF64(1.0);
  const std::vector<uint8_t>& good = w.bytes();
  const auto at = std::search(good.begin(), good.end(),
                              pattern.bytes().begin(), pattern.bytes().end());
  ASSERT_NE(at, good.end());
  const size_t offset = static_cast<size_t>(at - good.begin());
  // A count far past the bytes that follow, and one whose byte size wraps
  // to 8 in 64 bits, which an unchecked n * sizeof(double) would accept.
  for (const uint64_t count : {uint64_t{1} << 40, (uint64_t{1} << 61) + 1}) {
    std::vector<uint8_t> bad = good;
    std::memcpy(bad.data() + offset, &count, sizeof(count));
    ByteReader r(bad);
    IntermediateInfo out;
    const Status st = LoadIntermediateInfo(&r, &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption)
        << count << ": " << st.ToString();
    EXPECT_TRUE(out.recon.centers.empty()) << count;
  }
}

}  // namespace
}  // namespace mistique
