#include <gtest/gtest.h>

#include <filesystem>

#include "table/corpus.h"
#include "table/csv.h"
#include "table/table.h"
#include "table/value.h"

namespace thetis {
namespace {

// --- Value -------------------------------------------------------------------

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToText(), "");
}

TEST(ValueTest, StringValue) {
  Value v = Value::String("Ron Santo");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.string_value(), "Ron Santo");
  EXPECT_EQ(v.ToText(), "Ron Santo");
}

TEST(ValueTest, NumberFormatting) {
  EXPECT_EQ(Value::Number(42).ToText(), "42");
  EXPECT_EQ(Value::Number(-3).ToText(), "-3");
  EXPECT_EQ(Value::Number(2.5).ToText(), "2.5");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::String("a"), Value::String("a"));
  EXPECT_NE(Value::String("a"), Value::String("b"));
  EXPECT_EQ(Value::Number(1.0), Value::Number(1.0));
  EXPECT_NE(Value::Number(1.0), Value::String("1"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

// --- Table -------------------------------------------------------------------

Table MakeTable() {
  Table t("players", {"Player", "Team"});
  EXPECT_TRUE(t.AppendRow({Value::String("Ron Santo"),
                           Value::String("Chicago Cubs")},
                          {1, 2})
                  .ok());
  EXPECT_TRUE(t.AppendRow({Value::String("Mitch Stetter"),
                           Value::String("Milwaukee Brewers")},
                          {3, kNoEntity})
                  .ok());
  return t;
}

TEST(TableTest, BasicShape) {
  Table t = MakeTable();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.column_name(0), "Player");
  EXPECT_EQ(t.cell(1, 1).string_value(), "Milwaukee Brewers");
}

TEST(TableTest, RejectsRaggedRow) {
  Table t("t", {"a", "b"});
  Status s = t.AppendRow({Value::Number(1)});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, RejectsMismatchedLinks) {
  Table t("t", {"a", "b"});
  Status s = t.AppendRow({Value::Number(1), Value::Number(2)}, {kNoEntity});
  EXPECT_FALSE(s.ok());
}

TEST(TableTest, LinkCoverage) {
  Table t = MakeTable();
  // 3 of 4 cells linked.
  EXPECT_DOUBLE_EQ(t.LinkCoverage(), 0.75);
}

TEST(TableTest, LinkCoverageEmptyTable) {
  Table t("t", {"a"});
  EXPECT_DOUBLE_EQ(t.LinkCoverage(), 0.0);
}

TEST(TableTest, DistinctEntities) {
  Table t = MakeTable();
  auto entities = t.DistinctEntities();
  std::sort(entities.begin(), entities.end());
  EXPECT_EQ(entities, (std::vector<EntityId>{1, 2, 3}));
}

TEST(TableTest, ColumnEntitiesSkipsUnlinked) {
  Table t = MakeTable();
  EXPECT_EQ(t.ColumnEntities(0), (std::vector<EntityId>{1, 3}));
  EXPECT_EQ(t.ColumnEntities(1), (std::vector<EntityId>{2}));
}

TEST(TableTest, ClearLinks) {
  Table t = MakeTable();
  t.ClearLinks();
  EXPECT_DOUBLE_EQ(t.LinkCoverage(), 0.0);
  EXPECT_TRUE(t.DistinctEntities().empty());
}

// --- CSV ---------------------------------------------------------------------

// A one-column corpus whose table i holds the single string "v<i>".
Corpus MakeCorpus(int tables) {
  Corpus corpus;
  for (int i = 0; i < tables; ++i) {
    Table t("t" + std::to_string(i), {"c"});
    EXPECT_TRUE(
        t.AppendRow({Value::String("v" + std::to_string(i))}, {EntityId(i)})
            .ok());
    EXPECT_TRUE(corpus.AddTable(std::move(t)).ok());
  }
  return corpus;
}

TEST(CorpusTest, CloneSharesTables) {
  Corpus original = MakeCorpus(3);
  Corpus clone = original.Clone();
  ASSERT_EQ(clone.size(), original.size());
  for (TableId id = 0; id < original.size(); ++id) {
    EXPECT_EQ(&clone.table(id), &original.table(id));
  }
  EXPECT_EQ(clone.FindByName("t2").value(), 2u);
}

TEST(CorpusTest, WriteToCloneLeavesOriginalUnchanged) {
  Corpus original = MakeCorpus(3);
  Corpus clone = original.Clone();
  const Table* shared = &original.table(1);
  Table* written = clone.mutable_table(1);
  EXPECT_NE(written, shared);
  *written->mutable_cell(0, 0) = Value::String("changed");
  written->set_link(0, 0, 42);
  EXPECT_EQ(&original.table(1), shared);
  EXPECT_EQ(original.table(1).cell(0, 0).string_value(), "v1");
  EXPECT_EQ(original.table(1).link(0, 0), 1u);
  EXPECT_EQ(clone.table(1).cell(0, 0).string_value(), "changed");
  EXPECT_EQ(clone.table(1).link(0, 0), 42u);
  // Untouched tables stay shared; the written one is the clone's own now,
  // so a second write does not copy again.
  EXPECT_EQ(&clone.table(0), &original.table(0));
  EXPECT_EQ(clone.mutable_table(1), written);
}

TEST(CorpusTest, WriteToOriginalLeavesCloneUnchanged) {
  Corpus original = MakeCorpus(3);
  Corpus clone = original.Clone();
  *original.mutable_table(2) = Table("t2", {});
  EXPECT_EQ(original.table(2).num_rows(), 0u);
  EXPECT_EQ(clone.table(2).num_rows(), 1u);
  EXPECT_EQ(clone.table(2).cell(0, 0).string_value(), "v2");
  EXPECT_EQ(clone.table(2).link(0, 0), 2u);
}

TEST(CorpusTest, SoleOwnerWritesInPlace) {
  Corpus corpus = MakeCorpus(2);
  const Table* before = &corpus.table(0);
  EXPECT_EQ(corpus.mutable_table(0), before);
  {
    Corpus clone = corpus.Clone();
  }
  // The clone is gone, so the table is not shared any more.
  EXPECT_EQ(corpus.mutable_table(1), &corpus.table(1));
}

TEST(CorpusTest, AddTableToCloneLeavesOriginalUnchanged) {
  Corpus original = MakeCorpus(2);
  Corpus clone = original.Clone();
  ASSERT_TRUE(clone.AddTable(Table("new", {"c"})).ok());
  EXPECT_EQ(clone.size(), 3u);
  EXPECT_EQ(clone.FindByName("new").value(), 2u);
  EXPECT_EQ(original.size(), 2u);
  EXPECT_FALSE(original.FindByName("new").ok());
  // And the reverse: the original's new table is not the clone's.
  ASSERT_TRUE(original.AddTable(Table("other", {"c"})).ok());
  EXPECT_EQ(original.FindByName("other").value(), 2u);
  EXPECT_FALSE(clone.FindByName("other").ok());
  EXPECT_EQ(clone.table(2).name(), "new");
}

TEST(CsvTest, ParsesHeaderAndRows) {
  auto result = ParseCsv("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(result.ok());
  const Table& t = result.value();
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.column_name(1), "b");
  EXPECT_TRUE(t.cell(0, 0).is_number());
  EXPECT_EQ(t.cell(1, 1).string_value(), "y");
}

TEST(CsvTest, QuotedFieldsWithCommasAndQuotes) {
  auto result = ParseCsv("name,notes\n\"Santo, Ron\",\"said \"\"hi\"\"\"\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().cell(0, 0).string_value(), "Santo, Ron");
  EXPECT_EQ(result.value().cell(0, 1).string_value(), "said \"hi\"");
}

TEST(CsvTest, CrLfLineEndings) {
  auto result = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 1u);
}

TEST(CsvTest, NoHeaderMode) {
  CsvOptions options;
  options.has_header = false;
  auto result = ParseCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 2u);
  EXPECT_EQ(result.value().column_name(0), "col0");
}

TEST(CsvTest, EmptyFieldIsNull) {
  auto result = ParseCsv("a,b\n,x\n");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().cell(0, 0).is_null());
}

TEST(CsvTest, NumberDetectionCanBeDisabled) {
  CsvOptions options;
  options.detect_numbers = false;
  auto result = ParseCsv("a\n42\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().cell(0, 0).is_string());
}

TEST(CsvTest, RaggedRowIsError) {
  auto result = ParseCsv("a,b\n1\n");
  EXPECT_FALSE(result.ok());
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  auto result = ParseCsv("a\n\"oops\n");
  EXPECT_FALSE(result.ok());
}

TEST(CsvTest, MissingTrailingNewlineOk) {
  auto result = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 1u);
}

TEST(CsvTest, RoundTrip) {
  Table t("rt", {"name", "score"});
  ASSERT_TRUE(
      t.AppendRow({Value::String("has,comma"), Value::Number(1.5)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::String("line\nbreak"), Value::Null()}).ok());
  std::string csv = WriteCsv(t);
  auto parsed = ParseCsv(csv);
  ASSERT_TRUE(parsed.ok());
  const Table& u = parsed.value();
  EXPECT_EQ(u.num_rows(), 2u);
  EXPECT_EQ(u.cell(0, 0).string_value(), "has,comma");
  EXPECT_EQ(u.cell(1, 0).string_value(), "line\nbreak");
  EXPECT_DOUBLE_EQ(u.cell(0, 1).number_value(), 1.5);
}

TEST(CsvTest, FileRoundTrip) {
  Table t("ft", {"a"});
  ASSERT_TRUE(t.AppendRow({Value::String("x")}).ok());
  std::string path =
      (std::filesystem::temp_directory_path() / "thetis_csv_test.csv").string();
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().cell(0, 0).string_value(), "x");
  std::filesystem::remove(path);
}

TEST(CsvTest, MissingFileIsIoError) {
  auto result = ReadCsvFile("/nonexistent/path.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

// --- Corpus ------------------------------------------------------------------

TEST(CorpusTest, AddAndLookup) {
  Corpus corpus;
  auto id = corpus.AddTable(MakeTable());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.FindByName("players").value(), id.value());
  EXPECT_FALSE(corpus.FindByName("nope").ok());
}

TEST(CorpusTest, DuplicateNameRejected) {
  Corpus corpus;
  ASSERT_TRUE(corpus.AddTable(MakeTable()).ok());
  auto dup = corpus.AddTable(MakeTable());
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(CorpusTest, UnnamedTableRejected) {
  Corpus corpus;
  Table t("", {"a"});
  EXPECT_FALSE(corpus.AddTable(std::move(t)).ok());
}

TEST(CorpusTest, StatsMatchContents) {
  Corpus corpus;
  ASSERT_TRUE(corpus.AddTable(MakeTable()).ok());
  Table t2("other", {"x", "y", "z"});
  ASSERT_TRUE(t2.AppendRow({Value::Number(1), Value::Number(2),
                            Value::Number(3)},
                           {kNoEntity, kNoEntity, kNoEntity})
                  .ok());
  ASSERT_TRUE(corpus.AddTable(std::move(t2)).ok());
  CorpusStats stats = corpus.ComputeStats();
  EXPECT_EQ(stats.num_tables, 2u);
  EXPECT_DOUBLE_EQ(stats.mean_rows, 1.5);
  EXPECT_DOUBLE_EQ(stats.mean_columns, 2.5);
  EXPECT_EQ(stats.total_cells, 7u);
  EXPECT_EQ(stats.distinct_entities, 3u);
  EXPECT_NEAR(stats.mean_link_coverage, (0.75 + 0.0) / 2.0, 1e-12);
}

TEST(CorpusTest, EmptyStats) {
  Corpus corpus;
  CorpusStats stats = corpus.ComputeStats();
  EXPECT_EQ(stats.num_tables, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_rows, 0.0);
}

}  // namespace
}  // namespace thetis
