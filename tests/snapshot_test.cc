// Engine-snapshot persistence (src/io): round-trip ranking parity,
// corruption robustness, and on-disk format pinning.
//
// Three families of guarantees:
//
//  * Parity — an engine restored from a snapshot answers every query
//    bit-identically to the engine it was saved from, across the
//    cache/prune/parallel query variants and through the LSEI prefilter.
//    (Those toggles are exact by contract, so everything is compared
//    against one baseline ranking.)
//  * Robustness — no corrupted, truncated, tampered or mismatched file may
//    crash the loader: every case must come back as a clean Status. These
//    tests byte-flip every section, truncate at and inside every boundary,
//    shuffle the section table, forge kinds/offsets/checksums, and replay
//    the load against the wrong lake. The whole binary runs under
//    ASan/UBSan in CI, so "no crash" includes "no silent UB".
//  * Format pinning — the writer's byte stream is a pure function of the
//    appended sections, pinned by a checked-in golden fixture built from a
//    hand-constructed integer-only micro-lake (no floating-point pipeline
//    output, so the bytes are stable across toolchains). Regenerate with
//    THETIS_REGEN_GOLDEN=1 after a deliberate format change — which must
//    also bump kSnapshotVersion.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/benchmark_factory.h"
#include "core/search_engine.h"
#include "core/similarity.h"
#include "embedding/embedding_store.h"
#include "embedding/quantized_store.h"
#include "io/engine_snapshot.h"
#include "io/snapshot_format.h"
#include "io/snapshot_reader.h"
#include "io/snapshot_writer.h"
#include "lsh/lsei.h"
#include "semantic/semantic_data_lake.h"
#include "util/thread_pool.h"

namespace thetis {
namespace {

using benchgen::Benchmark;
using benchgen::GeneratedQuery;

// A snapshot path private to this test process, removed when it exits.
// ctest runs every test in its own process, several at once: a fixed name
// would let one process rewrite a file another has mapped.
std::string TempPath(const std::string& name) {
  struct Registry {
    std::vector<std::string> paths;
    ~Registry() {
      for (const std::string& path : paths) std::remove(path.c_str());
    }
  };
  static Registry registry;
  registry.paths.push_back(testing::TempDir() + "/snapshot_test_" +
                           std::to_string(::getpid()) + "_" + name);
  return registry.paths.back();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

SnapshotHeader HeaderOf(const std::string& bytes) {
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  return header;
}

void PatchHeader(std::string* bytes, const SnapshotHeader& header) {
  std::memcpy(bytes->data(), &header, sizeof(header));
}

// Tampers with section-table entry `index` and then REPAIRS the table
// checksum, so the per-entry validation (not the table hash) must catch it.
void PatchEntry(std::string* bytes, size_t index,
                const std::function<void(SectionEntry*)>& mutate) {
  SnapshotHeader header = HeaderOf(*bytes);
  ASSERT_LT(index, header.section_count);
  char* slot = bytes->data() + header.table_offset + index * sizeof(SectionEntry);
  SectionEntry entry;
  std::memcpy(&entry, slot, sizeof(entry));
  mutate(&entry);
  std::memcpy(slot, &entry, sizeof(entry));
  header.table_checksum =
      SnapshotChecksum(bytes->data() + header.table_offset,
                       header.section_count * sizeof(SectionEntry));
  PatchHeader(bytes, header);
}

// Index of `kind` in the section table, or section_count when absent.
size_t FindSection(const std::string& bytes, SectionKind kind) {
  const SnapshotHeader header = HeaderOf(bytes);
  for (size_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry,
                bytes.data() + header.table_offset + i * sizeof(entry),
                sizeof(entry));
    if (entry.kind == static_cast<uint32_t>(kind)) return i;
  }
  return header.section_count;
}

// The section-table entry of `kind`; asserts presence.
SectionEntry EntryOf(const std::string& bytes, SectionKind kind) {
  const SnapshotHeader header = HeaderOf(bytes);
  const size_t index = FindSection(bytes, kind);
  EXPECT_LT(index, header.section_count)
      << "section kind " << static_cast<uint32_t>(kind) << " not present";
  SectionEntry entry;
  std::memcpy(&entry,
              bytes.data() + header.table_offset + index * sizeof(entry),
              sizeof(entry));
  return entry;
}

// Mutates the payload of section `kind` in place and REPAIRS both
// checksums, so only the loader's semantic validation — not the integrity
// machinery — can reject the result.
void PatchSectionPayload(std::string* bytes, SectionKind kind,
                         const std::function<void(char*)>& mutate) {
  const size_t index = FindSection(*bytes, kind);
  ASSERT_LT(index, HeaderOf(*bytes).section_count)
      << "section kind " << static_cast<uint32_t>(kind) << " not present";
  const SectionEntry entry = EntryOf(*bytes, kind);
  mutate(bytes->data() + entry.offset);
  PatchEntry(bytes, index, [bytes](SectionEntry* e) {
    e->checksum = SnapshotChecksum(bytes->data() + e->offset, e->length);
  });
}

// Shrinks section `kind` to `new_length` bytes, repairing BOTH checksums
// (the section's own and the table's), so only the loader's shape
// validation — not the integrity machinery — can reject the result.
void ShrinkSection(std::string* bytes, SectionKind kind, uint64_t new_length) {
  const size_t index = FindSection(*bytes, kind);
  ASSERT_LT(index, HeaderOf(*bytes).section_count)
      << "section kind " << static_cast<uint32_t>(kind) << " not present";
  PatchEntry(bytes, index, [bytes, new_length](SectionEntry* e) {
    ASSERT_LT(new_length, e->length);
    e->length = new_length;
    e->checksum = SnapshotChecksum(bytes->data() + e->offset, new_length);
  });
}

// One shared world: a small benchmark lake, a types-mode engine + LSEI
// built over it, and one saved snapshot. Tests read; none mutates.
class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new Benchmark(
        benchgen::MakeBenchmark(benchgen::PresetKind::kWt2015Like, 0.15, 33));
    lake_ = new SemanticDataLake(&bench_->lake.corpus, &bench_->kg.kg);
    types_ = new TypeJaccardSimilarity(&bench_->kg.kg);
    engine_ = new SearchEngine(lake_, types_);
    LseiOptions lsh;
    lsh.num_functions = 30;
    lsh.band_size = 10;
    lsei_ = new Lsei(lake_, nullptr, lsh);
    queries_ = new std::vector<GeneratedQuery>(
        benchgen::MakeQueries(bench_->kg, 6));
    path_ = new std::string(TempPath("engine_parity.snap"));
    EngineSnapshotParts parts;
    parts.lake = lake_;
    parts.engine = engine_;
    parts.lsei = lsei_;
    Status saved = SaveEngineSnapshot(*path_, parts);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  static void TearDownTestSuite() {
    delete path_;
    delete queries_;
    delete lsei_;
    delete engine_;
    delete types_;
    delete lake_;
    delete bench_;
  }

  // Writes `bytes` to a scratch file and attempts a full engine load.
  static Status TryLoad(const std::string& bytes) {
    const std::string scratch = TempPath("tampered.snap");
    WriteAll(scratch, bytes);
    auto loaded = LoadedEngine::Load(scratch, lake_);
    return loaded.ok() ? Status::Ok() : loaded.status();
  }

  static void ExpectHitsEqual(const std::vector<SearchHit>& expected,
                              const std::vector<SearchHit>& actual) {
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].table, actual[i].table) << "rank " << i;
      // Bit-identical, not approximately equal: the snapshot restores the
      // same arrays the build produced.
      EXPECT_EQ(expected[i].score, actual[i].score) << "rank " << i;
    }
  }

  static Benchmark* bench_;
  static SemanticDataLake* lake_;
  static TypeJaccardSimilarity* types_;
  static SearchEngine* engine_;
  static Lsei* lsei_;
  static std::vector<GeneratedQuery>* queries_;
  static std::string* path_;
};

Benchmark* SnapshotTest::bench_ = nullptr;
SemanticDataLake* SnapshotTest::lake_ = nullptr;
TypeJaccardSimilarity* SnapshotTest::types_ = nullptr;
SearchEngine* SnapshotTest::engine_ = nullptr;
Lsei* SnapshotTest::lsei_ = nullptr;
std::vector<GeneratedQuery>* SnapshotTest::queries_ = nullptr;
std::string* SnapshotTest::path_ = nullptr;

TEST_F(SnapshotTest, RoundTripSearchParityAcrossQueryVariants) {
  auto loaded = LoadedEngine::Load(*path_, lake_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  LoadedEngine& restored = *loaded.value();
  EXPECT_EQ(restored.similarity().name(), "types");
  EXPECT_GT(restored.mapped_bytes(), sizeof(SnapshotHeader));

  ThreadPool pool(4);
  for (const GeneratedQuery& q : *queries_) {
    const std::vector<SearchHit> baseline = engine_->Search(q.query);

    // Default options (cache + prune on, as saved).
    ExpectHitsEqual(baseline, restored.engine().Search(q.query));
    // Parallel scoring over the restored arena.
    ExpectHitsEqual(baseline,
                    restored.engine().SearchParallel(q.query, &pool));

    // Cache and prune off: both are exact toggles, so the restored engine
    // must still reproduce the baseline bit for bit.
    SearchOptions variant = engine_->options();
    variant.enable_cache = false;
    restored.mutable_engine()->set_options(variant);
    ExpectHitsEqual(baseline, restored.engine().Search(q.query));
    variant.enable_cache = true;
    variant.enable_prune = false;
    restored.mutable_engine()->set_options(variant);
    ExpectHitsEqual(baseline, restored.engine().Search(q.query));
    restored.mutable_engine()->set_options(engine_->options());
  }
}

TEST_F(SnapshotTest, RoundTripExplainParity) {
  auto loaded = LoadedEngine::Load(*path_, lake_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const GeneratedQuery& q : *queries_) {
    const std::vector<SearchHit> hits = engine_->Search(q.query);
    if (hits.empty()) continue;
    const Explanation expected = engine_->Explain(q.query, hits[0].table);
    const Explanation actual =
        loaded.value()->engine().Explain(q.query, hits[0].table);
    EXPECT_EQ(expected.score, actual.score);
    ASSERT_EQ(expected.tuples.size(), actual.tuples.size());
    for (size_t t = 0; t < expected.tuples.size(); ++t) {
      EXPECT_EQ(expected.tuples[t].score, actual.tuples[t].score);
      ASSERT_EQ(expected.tuples[t].entities.size(),
                actual.tuples[t].entities.size());
      for (size_t e = 0; e < expected.tuples[t].entities.size(); ++e) {
        const EntityExplanation& want = expected.tuples[t].entities[e];
        const EntityExplanation& got = actual.tuples[t].entities[e];
        EXPECT_EQ(want.entity, got.entity);
        EXPECT_EQ(want.column, got.column);
        EXPECT_EQ(want.coordinate, got.coordinate);
        EXPECT_EQ(want.weight, got.weight);
        EXPECT_EQ(want.best_match, got.best_match);
      }
    }
  }
}

TEST_F(SnapshotTest, RoundTripLseiParity) {
  auto loaded = LoadedEngine::Load(*path_, lake_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded.value()->lsei(), nullptr);
  const Lsei& restored = *loaded.value()->lsei();
  EXPECT_EQ(restored.num_items(), lsei_->num_items());
  EXPECT_EQ(restored.NumBuckets(), lsei_->NumBuckets());
  for (const GeneratedQuery& q : *queries_) {
    EXPECT_EQ(lsei_->CandidateTablesForQuery(q.query.tuples, 2),
              restored.CandidateTablesForQuery(q.query.tuples, 2));
    // Through the prefiltered engine: end-to-end hit parity.
    PrefilteredSearchEngine built_fast(engine_, lsei_, /*votes=*/2);
    PrefilteredSearchEngine restored_fast(&loaded.value()->engine(),
                                          &restored, /*votes=*/2);
    ExpectHitsEqual(built_fast.Search(q.query), restored_fast.Search(q.query));
  }
}

TEST_F(SnapshotTest, SaveIsDeterministic) {
  const std::string again = TempPath("engine_again.snap");
  EngineSnapshotParts parts;
  parts.lake = lake_;
  parts.engine = engine_;
  parts.lsei = lsei_;
  ASSERT_TRUE(SaveEngineSnapshot(again, parts).ok());
  EXPECT_EQ(ReadAll(*path_), ReadAll(again))
      << "snapshot bytes must be a pure function of the engine state";
}

// Re-saving over a path that a live engine has mapped must not disturb
// that engine: the writer publishes by rename, so the held mapping keeps
// the old file. The replacement here drops the LSEI, so it is shorter than
// the file under the mapping — rewritten in place, the held LSEI sections
// would lie past the new end of file and fault on access.
TEST_F(SnapshotTest, ResaveOverMappedSnapshotLeavesHeldEngineIntact) {
  const std::string path = TempPath("resaved.snap");
  EngineSnapshotParts parts;
  parts.lake = lake_;
  parts.engine = engine_;
  parts.lsei = lsei_;
  ASSERT_TRUE(SaveEngineSnapshot(path, parts).ok());
  auto held = LoadedEngine::Load(path, lake_);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  ASSERT_NE(held.value()->lsei(), nullptr);
  std::vector<std::vector<SearchHit>> before;
  for (const GeneratedQuery& q : *queries_) {
    before.push_back(held.value()->engine().Search(q.query));
  }

  EngineSnapshotParts without_lsei = parts;
  without_lsei.lsei = nullptr;
  ASSERT_TRUE(SaveEngineSnapshot(path, without_lsei).ok());

  for (size_t i = 0; i < queries_->size(); ++i) {
    const Query& query = (*queries_)[i].query;
    ExpectHitsEqual(before[i], held.value()->engine().Search(query));
    EXPECT_EQ(lsei_->CandidateTablesForQuery(query.tuples, 2),
              held.value()->lsei()->CandidateTablesForQuery(query.tuples, 2));
  }
  // The path now holds the complete replacement.
  auto fresh = LoadedEngine::Load(path, lake_);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value()->lsei(), nullptr);
  ExpectHitsEqual(before.front(),
                  fresh.value()->engine().Search(queries_->front().query));
}

TEST_F(SnapshotTest, LoadWithoutChecksumVerificationStillMatches) {
  LoadedEngine::Options options;
  options.verify = false;
  auto loaded = LoadedEngine::Load(*path_, lake_, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const GeneratedQuery& q = queries_->front();
  ExpectHitsEqual(engine_->Search(q.query),
                  loaded.value()->engine().Search(q.query));
}

TEST_F(SnapshotTest, LoadRejectsDifferentLake) {
  Benchmark other =
      benchgen::MakeBenchmark(benchgen::PresetKind::kWt2015Like, 0.1, 99);
  SemanticDataLake other_lake(&other.lake.corpus, &other.kg.kg);
  auto loaded = LoadedEngine::Load(*path_, &other_lake);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().ToString().find("different lake"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(SnapshotTest, ByteFlipInEverySectionIsRejected) {
  const std::string clean = ReadAll(*path_);
  auto reader = SnapshotReader::Open(*path_);
  ASSERT_TRUE(reader.ok());
  for (const SnapshotReader::SectionInfo& section :
       reader.value().sections()) {
    if (section.length == 0) continue;
    std::string tampered = clean;
    tampered[section.offset + section.length / 2] ^= 0x01;
    Status status = TryLoad(tampered);
    ASSERT_FALSE(status.ok())
        << "flip in section kind " << section.kind << " went undetected";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  // A flip inside the section table itself.
  const SnapshotHeader header = HeaderOf(clean);
  std::string tampered = clean;
  tampered[header.table_offset + sizeof(SectionEntry) / 2] ^= 0x01;
  EXPECT_FALSE(TryLoad(tampered).ok());
}

TEST_F(SnapshotTest, TruncationAtAndInsideEveryBoundaryIsRejected) {
  const std::string clean = ReadAll(*path_);
  auto reader = SnapshotReader::Open(*path_);
  ASSERT_TRUE(reader.ok());
  std::vector<size_t> cuts = {0, 1, sizeof(SnapshotHeader) - 1,
                              sizeof(SnapshotHeader), clean.size() - 1};
  for (const SnapshotReader::SectionInfo& section :
       reader.value().sections()) {
    cuts.push_back(section.offset);
    cuts.push_back(section.offset + section.length / 2);
  }
  for (size_t cut : cuts) {
    ASSERT_LT(cut, clean.size());
    Status status = TryLoad(clean.substr(0, cut));
    EXPECT_FALSE(status.ok()) << "truncation to " << cut << " bytes loaded";
  }
}

TEST_F(SnapshotTest, ShuffledSectionTableIsRejected) {
  std::string tampered = ReadAll(*path_);
  const SnapshotHeader header = HeaderOf(tampered);
  ASSERT_GE(header.section_count, 2u);
  char* table = tampered.data() + header.table_offset;
  // Swap the first two entries without repairing the table checksum.
  SectionEntry a, b;
  std::memcpy(&a, table, sizeof(a));
  std::memcpy(&b, table + sizeof(a), sizeof(b));
  std::memcpy(table, &b, sizeof(b));
  std::memcpy(table + sizeof(a), &a, sizeof(a));
  Status status = TryLoad(tampered);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("corrupted or shuffled"),
            std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotTest, ZeroedChecksumsAreRejected) {
  const std::string clean = ReadAll(*path_);
  {
    // Zero the header's table checksum.
    std::string tampered = clean;
    SnapshotHeader header = HeaderOf(tampered);
    header.table_checksum = 0;
    PatchHeader(&tampered, header);
    EXPECT_FALSE(TryLoad(tampered).ok());
  }
  {
    // Zero one section's checksum inside the table (table hash catches it).
    std::string tampered = clean;
    const SnapshotHeader header = HeaderOf(tampered);
    SectionEntry entry;
    std::memcpy(&entry, tampered.data() + header.table_offset, sizeof(entry));
    entry.checksum = 0;
    std::memcpy(tampered.data() + header.table_offset, &entry, sizeof(entry));
    EXPECT_FALSE(TryLoad(tampered).ok());
  }
  {
    // Same, but with the table checksum repaired: now the per-section
    // verification must catch the forged hash.
    std::string tampered = clean;
    PatchEntry(&tampered, 0, [](SectionEntry* e) { e->checksum = 0; });
    Status status = TryLoad(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("failed its checksum"),
              std::string::npos)
        << status.ToString();
  }
}

TEST_F(SnapshotTest, ForgedSectionEntriesAreRejected) {
  const std::string clean = ReadAll(*path_);
  {
    // Duplicate kind (consistency checksums repaired).
    std::string tampered = clean;
    SectionEntry first;
    std::memcpy(&first, tampered.data() + HeaderOf(tampered).table_offset,
                sizeof(first));
    PatchEntry(&tampered, 1,
               [&first](SectionEntry* e) { e->kind = first.kind; });
    Status status = TryLoad(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("duplicate"), std::string::npos)
        << status.ToString();
  }
  {
    // Misaligned offset.
    std::string tampered = clean;
    PatchEntry(&tampered, 0, [](SectionEntry* e) { e->offset += 1; });
    Status status = TryLoad(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("misaligned"), std::string::npos)
        << status.ToString();
  }
  {
    // Out-of-bounds length (aligned, so the bounds check must catch it).
    std::string tampered = clean;
    PatchEntry(&tampered, 0,
               [&clean](SectionEntry* e) { e->length = clean.size() * 2; });
    Status status = TryLoad(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("bounds"), std::string::npos)
        << status.ToString();
  }
  {
    // Implausible section count.
    std::string tampered = clean;
    SnapshotHeader header = HeaderOf(tampered);
    header.section_count = kMaxSections + 1;
    PatchHeader(&tampered, header);
    EXPECT_FALSE(TryLoad(tampered).ok());
  }
}

TEST_F(SnapshotTest, BadMagicVersionAndEndiannessAreDescriptiveErrors) {
  const std::string clean = ReadAll(*path_);
  {
    std::string tampered = clean;
    SnapshotHeader header = HeaderOf(tampered);
    header.magic = 0x1122334455667788ull;
    PatchHeader(&tampered, header);
    Status status = TryLoad(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("bad magic"), std::string::npos)
        << status.ToString();
  }
  {
    // Byte-swapped magic: the file came from the other endianness.
    std::string tampered = clean;
    for (size_t i = 0; i < 4; ++i) std::swap(tampered[i], tampered[7 - i]);
    Status status = TryLoad(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("endianness"), std::string::npos)
        << status.ToString();
  }
  {
    // Byte-swapped endian marker with an intact magic.
    std::string tampered = clean;
    SnapshotHeader header = HeaderOf(tampered);
    header.endian = 0x04030201u;
    PatchHeader(&tampered, header);
    Status status = TryLoad(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("endianness"), std::string::npos)
        << status.ToString();
  }
  {
    // A future format version must be refused, naming both versions.
    std::string tampered = clean;
    SnapshotHeader header = HeaderOf(tampered);
    header.version = kSnapshotVersion + 41;
    PatchHeader(&tampered, header);
    Status status = TryLoad(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("unsupported engine snapshot version"),
              std::string::npos)
        << status.ToString();
    EXPECT_NE(status.ToString().find(std::to_string(kSnapshotVersion + 41)),
              std::string::npos)
        << status.ToString();
  }
}

TEST_F(SnapshotTest, ReaderToleratesUnknownSectionKinds) {
  // Forward compatibility: a newer writer may append kinds this build does
  // not know. They are bounds-checked and skipped, not fatal.
  const std::string path = TempPath("unknown_kind.snap");
  SnapshotWriter writer(path);
  const uint32_t payload[4] = {1, 2, 3, 4};
  ASSERT_TRUE(writer
                  .AppendSection(static_cast<SectionKind>(999), payload,
                                 sizeof(payload))
                  .ok());
  const uint64_t known[2] = {7, 8};
  ASSERT_TRUE(writer
                  .AppendArray<uint64_t>(SectionKind::kArenaTableOffsets,
                                         std::span<const uint64_t>(known))
                  .ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto array = reader.value().Array<uint64_t>(SectionKind::kArenaTableOffsets);
  ASSERT_TRUE(array.ok());
  ASSERT_EQ(array.value().size(), 2u);
  EXPECT_EQ(array.value()[0], 7u);
}

// --- Golden-file format pinning -------------------------------------------

// A hand-built, integer-only micro-lake: every byte of its snapshot is a
// deterministic function of this code (type ids, entity ids, table names,
// MinHash over integers), with no floating-point pipeline output that
// could drift across toolchains. Embeddings are deliberately absent.
struct MicroLake {
  KnowledgeGraph kg;
  Corpus corpus;

  MicroLake() {
    TypeId thing = kg.mutable_taxonomy()->AddType("thing").value();
    TypeId person = kg.mutable_taxonomy()->AddType("person", thing).value();
    TypeId city = kg.mutable_taxonomy()->AddType("city", thing).value();
    TypeId club = kg.mutable_taxonomy()->AddType("club", thing).value();
    const TypeId kinds[8] = {person, person, person, city,
                             city,   club,   club,   person};
    for (int i = 0; i < 8; ++i) {
      EntityId e = kg.AddEntity("entity_" + std::to_string(i)).value();
      EXPECT_TRUE(kg.AddEntityType(e, kinds[i]).ok());
    }
    AddTable("people", {{0, 1}, {2, 7}});
    AddTable("places", {{3, 4}, {4, 3}});
    AddTable("mixed", {{0, 5}, {3, 6}, {7, 5}});
  }

  void AddTable(const std::string& name,
                const std::vector<std::vector<EntityId>>& rows) {
    Table table(name, {"a", "b"});
    for (const std::vector<EntityId>& row : rows) {
      std::vector<Value> cells;
      for (EntityId e : row) {
        cells.push_back(Value::Number(static_cast<double>(e)));
      }
      EXPECT_TRUE(table.AppendRow(std::move(cells),
                                  std::vector<EntityId>(row)).ok());
    }
    EXPECT_TRUE(corpus.AddTable(std::move(table)).ok());
  }
};

// The version-3 fixture is saved SHARDED (2 shards over the 3-table
// micro-lake), so it pins the shard sections, the rebased arena
// concatenation and the shard-relative signature ids — the whole sharded
// on-disk surface — byte for byte.
std::string GoldenPath() {
  return std::string(THETIS_SOURCE_DIR) +
         "/tests/golden/engine_snapshot_v3.snap";
}

// The untouched version-2 fixture, written before the shard sections
// existed (its SnapshotMeta::num_shards slot is still the zeroed reserved
// field). It must keep loading forever, as a single-shard engine.
std::string GoldenV2Path() {
  return std::string(THETIS_SOURCE_DIR) +
         "/tests/golden/engine_snapshot_v2.snap";
}

// The untouched version-1 fixture, written before the compressed
// bound-backend sections (kQuantCodes..kTypeBitsetSizes) existed. Those
// sections are optional, so this file must keep loading forever.
std::string GoldenV1Path() {
  return std::string(THETIS_SOURCE_DIR) +
         "/tests/golden/engine_snapshot_v1.snap";
}

std::string BuildMicroSnapshot(const MicroLake& micro,
                               const SemanticDataLake& lake,
                               const std::string& path,
                               size_t num_shards = 1) {
  TypeJaccardSimilarity types(&micro.kg);
  SearchOptions options;
  options.num_shards = num_shards;
  SearchEngine engine(&lake, &types, options);
  LseiOptions lsh;
  lsh.num_functions = 6;
  lsh.band_size = 3;
  Lsei lsei(&lake, nullptr, lsh);
  EngineSnapshotParts parts;
  parts.lake = &lake;
  parts.engine = &engine;
  parts.lsei = &lsei;
  EXPECT_TRUE(SaveEngineSnapshot(path, parts).ok());
  return ReadAll(path);
}

TEST(GoldenSnapshotTest, WriterMatchesCheckedInFixtureByteForByte) {
  MicroLake micro;
  SemanticDataLake lake(&micro.corpus, &micro.kg);
  const std::string scratch = TempPath("golden_candidate.snap");
  const std::string bytes =
      BuildMicroSnapshot(micro, lake, scratch, /*num_shards=*/2);
  if (std::getenv("THETIS_REGEN_GOLDEN") != nullptr) {
    WriteAll(GoldenPath(), bytes);
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  const std::string golden = ReadAll(GoldenPath());
  ASSERT_EQ(golden.size(), bytes.size())
      << "snapshot format changed size; if intentional, bump "
         "kSnapshotVersion and regenerate with THETIS_REGEN_GOLDEN=1";
  EXPECT_TRUE(golden == bytes)
      << "snapshot bytes diverged from the checked-in fixture; if "
         "intentional, bump kSnapshotVersion and regenerate with "
         "THETIS_REGEN_GOLDEN=1";
}

TEST(GoldenSnapshotTest, CheckedInFixtureLoadsAndAnswersQueries) {
  MicroLake micro;
  SemanticDataLake lake(&micro.corpus, &micro.kg);
  auto loaded = LoadedEngine::Load(GoldenPath(), &lake);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded.value()->lsei(), nullptr);
  // The v3 fixture is a 2-shard save; the loader must cut the mapped
  // sections back into both shard windows.
  EXPECT_EQ(loaded.value()->engine().shards().size(), 2u);
  // The fixture carries type-bitset sections (4-type vocabulary), and
  // the loader must wire them up rather than rebuild.
  const auto* restored_types = dynamic_cast<const TypeJaccardSimilarity*>(
      &loaded.value()->similarity());
  ASSERT_NE(restored_types, nullptr);
  EXPECT_TRUE(restored_types->has_bitset());

  TypeJaccardSimilarity types(&micro.kg);
  SearchEngine built(&lake, &types);
  Query query;
  query.tuples.push_back({0, 1});
  const std::vector<SearchHit> expected = built.Search(query);
  const std::vector<SearchHit> actual = loaded.value()->engine().Search(query);
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_FALSE(actual.empty());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].table, actual[i].table);
    EXPECT_EQ(expected[i].score, actual[i].score);
  }
  // Pin the semantics, not just the parity: the all-person query must rank
  // the all-person table first.
  EXPECT_EQ(micro.corpus.table(actual[0].table).name(), "people");
}

TEST(GoldenSnapshotTest, LegacyVersion1FixtureStillLoads) {
  // Backward compatibility: the v1 fixture predates the compressed
  // bound-backend sections. The loader must accept the old version,
  // rebuild the missing backends in memory, and answer bit-identically
  // to a freshly built engine.
  MicroLake micro;
  SemanticDataLake lake(&micro.corpus, &micro.kg);
  auto loaded = LoadedEngine::Load(GoldenV1Path(), &lake);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto* restored_types = dynamic_cast<const TypeJaccardSimilarity*>(
      &loaded.value()->similarity());
  ASSERT_NE(restored_types, nullptr);
  EXPECT_TRUE(restored_types->has_bitset())
      << "absent bitset sections must be rebuilt, not left empty";

  TypeJaccardSimilarity types(&micro.kg);
  SearchEngine built(&lake, &types);
  Query query;
  query.tuples.push_back({0, 1});
  const std::vector<SearchHit> expected = built.Search(query);
  const std::vector<SearchHit> actual = loaded.value()->engine().Search(query);
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_FALSE(actual.empty());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].table, actual[i].table);
    EXPECT_EQ(expected[i].score, actual[i].score);
  }
}

TEST(GoldenSnapshotTest, LegacyVersion2FixtureStillLoads) {
  // Backward compatibility across the sharding change: the v2 fixture's
  // num_shards slot is the zeroed reserved field and it has no shard
  // sections, so it must restore as a classic single-shard engine and
  // answer bit-identically to a freshly built one.
  MicroLake micro;
  SemanticDataLake lake(&micro.corpus, &micro.kg);
  auto loaded = LoadedEngine::Load(GoldenV2Path(), &lake);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->engine().shards().size(), 1u);

  TypeJaccardSimilarity types(&micro.kg);
  SearchEngine built(&lake, &types);
  Query query;
  query.tuples.push_back({0, 1});
  const std::vector<SearchHit> expected = built.Search(query);
  const std::vector<SearchHit> actual = loaded.value()->engine().Search(query);
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_FALSE(actual.empty());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].table, actual[i].table);
    EXPECT_EQ(expected[i].score, actual[i].score);
  }
}

// --- Sharded snapshots (version 3) -----------------------------------------

// A sharded save's arena and signature-class sections must be byte-for-byte
// what the unsharded engine over the same corpus writes: the per-shard
// slices are rebased back into the global layout on the way out, so the
// shard count never forks the core on-disk data (compared via the stored
// per-section FNV checksums plus lengths).
TEST(GoldenSnapshotTest, ShardedSaveRebasesArenaSectionsToUnshardedBytes) {
  MicroLake micro;
  SemanticDataLake lake(&micro.corpus, &micro.kg);
  const std::string flat_path = TempPath("shard_flat.snap");
  const std::string sharded_path = TempPath("shard_two.snap");
  const std::string flat = BuildMicroSnapshot(micro, lake, flat_path, 1);
  const std::string sharded = BuildMicroSnapshot(micro, lake, sharded_path, 2);
  for (SectionKind kind :
       {SectionKind::kArenaTableOffsets, SectionKind::kArenaColOffsets,
        SectionKind::kArenaDistinct, SectionKind::kArenaCounts,
        SectionKind::kSigEntityClasses}) {
    const SectionEntry a = EntryOf(flat, kind);
    const SectionEntry b = EntryOf(sharded, kind);
    EXPECT_EQ(a.length, b.length) << static_cast<uint32_t>(kind);
    EXPECT_EQ(a.checksum, b.checksum) << static_cast<uint32_t>(kind);
  }
  // The shard sections exist only in the sharded file.
  EXPECT_EQ(FindSection(flat, SectionKind::kShardTableBounds),
            HeaderOf(flat).section_count);
  EXPECT_LT(FindSection(sharded, SectionKind::kShardTableBounds),
            HeaderOf(sharded).section_count);
  EXPECT_EQ(HeaderOf(flat).version, kSnapshotVersion);
}

// Round trip through a sharded snapshot on the full benchmark lake: the
// restored engine must keep the shard layout and answer bit-identically to
// BOTH the engine it was saved from and the unsharded baseline.
TEST_F(SnapshotTest, ShardedRoundTripKeepsLayoutAndRankings) {
  SearchOptions options;
  options.num_shards = 3;
  SearchEngine sharded(lake_, types_, options);
  const std::string path = TempPath("sharded_parity.snap");
  EngineSnapshotParts parts;
  parts.lake = lake_;
  parts.engine = &sharded;
  Status saved = SaveEngineSnapshot(path, parts);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  auto loaded = LoadedEngine::Load(path, lake_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SearchEngine& restored = loaded.value()->engine();
  ASSERT_EQ(restored.shards().size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(restored.shards()[s].begin, sharded.shards()[s].begin) << s;
    EXPECT_EQ(restored.shards()[s].end, sharded.shards()[s].end) << s;
  }
  ThreadPool pool(4);
  for (const GeneratedQuery& q : *queries_) {
    const std::vector<SearchHit> expected = engine_->Search(q.query);
    ExpectHitsEqual(expected, sharded.Search(q.query));
    SearchStats stats;
    ExpectHitsEqual(expected, restored.Search(q.query, &stats));
    EXPECT_EQ(stats.num_shards, 3u);
    ExpectHitsEqual(expected, restored.SearchParallel(q.query, &pool));
  }
}

// Shape validation of the v3 shard sections: internally consistent files
// (every checksum repaired after tampering) whose shard metadata lies must
// come back as clean, descriptive errors — never a misassembled engine.
TEST(GoldenSnapshotTest, MalformedShardSectionsAreRejected) {
  MicroLake micro;
  SemanticDataLake lake(&micro.corpus, &micro.kg);
  const std::string scratch = TempPath("shard_tamper.snap");
  const std::string clean = BuildMicroSnapshot(micro, lake, scratch, 2);
  ASSERT_LT(FindSection(clean, SectionKind::kShardTableBounds),
            HeaderOf(clean).section_count);

  const auto try_load = [&](const std::string& bytes) {
    const std::string path = TempPath("shard_tampered.snap");
    WriteAll(path, bytes);
    auto loaded = LoadedEngine::Load(path, &lake);
    return loaded.ok() ? Status::Ok() : loaded.status();
  };
  const auto expect_shard_error = [&](const std::string& bytes,
                                      const std::string& label) {
    Status status = try_load(bytes);
    ASSERT_FALSE(status.ok()) << label;
    EXPECT_NE(status.ToString().find("shard"), std::string::npos)
        << label << ": " << status.ToString();
  };

  {
    // Bounds truncated to one fewer boundary than the shard count needs.
    std::string tampered = clean;
    ShrinkSection(&tampered, SectionKind::kShardTableBounds,
                  2 * sizeof(uint64_t));
    expect_shard_error(tampered, "truncated bounds");
  }
  {
    // Bounds truncated to nothing.
    std::string tampered = clean;
    ShrinkSection(&tampered, SectionKind::kShardTableBounds, 0);
    expect_shard_error(tampered, "empty bounds");
  }
  {
    // Last boundary no longer equals the arena table count.
    std::string tampered = clean;
    PatchSectionPayload(&tampered, SectionKind::kShardTableBounds,
                        [](char* payload) {
                          uint64_t forged = 99;
                          std::memcpy(payload + 2 * sizeof(uint64_t), &forged,
                                      sizeof(forged));
                        });
    expect_shard_error(tampered, "forged last bound");
  }
  {
    // Non-monotone interior boundary.
    std::string tampered = clean;
    PatchSectionPayload(&tampered, SectionKind::kShardTableBounds,
                        [](char* payload) {
                          uint64_t forged = ~uint64_t{0};
                          std::memcpy(payload + sizeof(uint64_t), &forged,
                                      sizeof(forged));
                        });
    expect_shard_error(tampered, "non-monotone bounds");
  }
  {
    // Per-shard signature counts that no longer sum to the meta total.
    std::string tampered = clean;
    PatchSectionPayload(&tampered, SectionKind::kShardSigNumDistinct,
                        [](char* payload) {
                          uint64_t forged = 1000;
                          std::memcpy(payload, &forged, sizeof(forged));
                        });
    expect_shard_error(tampered, "forged signature counts");
  }
  {
    // Meta shard count forged to disagree with the bounds section.
    std::string tampered = clean;
    PatchSectionPayload(&tampered, SectionKind::kMeta, [](char* payload) {
      uint32_t forged = 3;
      std::memcpy(payload + offsetof(SnapshotMeta, num_shards), &forged,
                  sizeof(forged));
    });
    expect_shard_error(tampered, "forged shard count");
  }
  {
    // Meta shard count past the sanity cap.
    std::string tampered = clean;
    PatchSectionPayload(&tampered, SectionKind::kMeta, [](char* payload) {
      uint32_t forged = 1u << 30;
      std::memcpy(payload + offsetof(SnapshotMeta, num_shards), &forged,
                  sizeof(forged));
    });
    expect_shard_error(tampered, "absurd shard count");
  }
  {
    // Meta forged back to a single shard while the (shard-relative) shard
    // sections are still present: flattening would corrupt signature ids,
    // so the loader must refuse.
    std::string tampered = clean;
    PatchSectionPayload(&tampered, SectionKind::kMeta, [](char* payload) {
      uint32_t forged = 0;
      std::memcpy(payload + offsetof(SnapshotMeta, num_shards), &forged,
                  sizeof(forged));
    });
    expect_shard_error(tampered, "flattened shard count");
  }
  // The clean file still loads after all that tampering of copies.
  EXPECT_TRUE(try_load(clean).ok());
}

TEST(GoldenSnapshotTest, MalformedTypeBitsetSectionsAreRejected) {
  // Shape validation of the v2 bitset sections: internally consistent
  // files (all checksums pass) whose sections disagree with the entity
  // count must come back as clean errors, not out-of-bounds views.
  MicroLake micro;
  SemanticDataLake lake(&micro.corpus, &micro.kg);
  const std::string scratch = TempPath("bitset_tamper.snap");
  const std::string clean = BuildMicroSnapshot(micro, lake, scratch);
  ASSERT_LT(FindSection(clean, SectionKind::kTypeBitsetBits),
            HeaderOf(clean).section_count)
      << "micro snapshot should carry bitset sections (4-type vocabulary)";

  const auto try_load = [&](const std::string& bytes) {
    const std::string path = TempPath("bitset_tampered.snap");
    WriteAll(path, bytes);
    auto loaded = LoadedEngine::Load(path, &lake);
    return loaded.ok() ? Status::Ok() : loaded.status();
  };

  {
    // Sizes array shorter than the entity count (8 entities).
    std::string tampered = clean;
    ShrinkSection(&tampered, SectionKind::kTypeBitsetSizes,
                  7 * sizeof(uint32_t));
    Status status = try_load(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("type-bitset"), std::string::npos)
        << status.ToString();
  }
  {
    // Bit words no longer a multiple of the entity count.
    std::string tampered = clean;
    ShrinkSection(&tampered, SectionKind::kTypeBitsetBits,
                  7 * sizeof(uint64_t));
    Status status = try_load(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("type-bitset"), std::string::npos)
        << status.ToString();
  }
  {
    // One of the paired sections missing entirely (kind forged to an
    // unknown value the reader skips): a half-present pair must be
    // refused rather than mixing viewed and rebuilt state.
    std::string tampered = clean;
    PatchEntry(&tampered, FindSection(tampered, SectionKind::kTypeBitsetSizes),
               [](SectionEntry* e) { e->kind = 912; });
    EXPECT_FALSE(try_load(tampered).ok());
  }
}

// --- Quantized-arena sections (cosine mode) -------------------------------

// Deterministic embeddings over the micro-lake's 8 entities: row 0 stays
// all-zero (exercising the zero-scale row through save/load), the rest are
// small integers normalized by the store.
EmbeddingStore MicroEmbeddings() {
  EmbeddingStore store(8, 6);
  for (size_t e = 1; e < 8; ++e) {
    for (size_t d = 0; d < 6; ++d) {
      store.mutable_vector(static_cast<EntityId>(e))[d] =
          static_cast<float>(static_cast<int>((e * 7 + d * 3) % 11) - 5);
    }
  }
  store.NormalizeAll();
  return store;
}

// A cosine-mode engine over the micro-lake, saved once per test: the
// shared SnapshotTest fixture is types-mode, so the kQuant* sections only
// exist here.
class QuantSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    micro_ = std::make_unique<MicroLake>();
    lake_ = std::make_unique<SemanticDataLake>(&micro_->corpus, &micro_->kg);
    store_ = std::make_unique<EmbeddingStore>(MicroEmbeddings());
    sim_ = std::make_unique<EmbeddingCosineSimilarity>(store_.get());
    engine_ = std::make_unique<SearchEngine>(lake_.get(), sim_.get());
    path_ = TempPath("quant.snap");
    EngineSnapshotParts parts;
    parts.lake = lake_.get();
    parts.engine = engine_.get();
    Status saved = SaveEngineSnapshot(path_, parts);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
    clean_ = ReadAll(path_);
    ASSERT_LT(FindSection(clean_, SectionKind::kQuantCodes),
              HeaderOf(clean_).section_count)
        << "cosine-mode snapshot should carry quantized sections";
  }

  Status TryLoadBytes(const std::string& bytes) {
    const std::string scratch = TempPath("quant_tampered.snap");
    WriteAll(scratch, bytes);
    auto loaded = LoadedEngine::Load(scratch, lake_.get());
    return loaded.ok() ? Status::Ok() : loaded.status();
  }

  std::unique_ptr<MicroLake> micro_;
  std::unique_ptr<SemanticDataLake> lake_;
  std::unique_ptr<EmbeddingStore> store_;
  std::unique_ptr<EmbeddingCosineSimilarity> sim_;
  std::unique_ptr<SearchEngine> engine_;
  std::string path_;
  std::string clean_;
};

TEST_F(QuantSnapshotTest, RoundTripViewsQuantizedArenaAndMatchesOwned) {
  auto loaded = LoadedEngine::Load(path_, lake_.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto* cosine = dynamic_cast<const EmbeddingCosineSimilarity*>(
      &loaded.value()->similarity());
  ASSERT_NE(cosine, nullptr);
  const QuantizedEmbeddingStore& restored = cosine->quantized();
  const QuantizedEmbeddingStore& built = sim_->quantized();
  EXPECT_TRUE(restored.is_view())
      << "load must view the mmap'd arena, not requantize";
  ASSERT_EQ(restored.size(), built.size());
  ASSERT_EQ(restored.dim(), built.dim());
  EXPECT_EQ(std::memcmp(restored.codes(), built.codes(),
                        built.size() * built.dim()),
            0);
  EXPECT_EQ(std::memcmp(restored.scales(), built.scales(),
                        built.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(restored.errors(), built.errors(),
                        built.size() * sizeof(float)),
            0);

  // Int8-bounded pruning over the restored (viewing) engine answers
  // bit-identically to the built (owning) one.
  SearchOptions options = engine_->options();
  options.enable_prune = true;
  options.bound_backend = SearchOptions::BoundBackend::kInt8;
  loaded.value()->mutable_engine()->set_options(options);
  Query query;
  query.tuples.push_back({1, 2});
  const std::vector<SearchHit> expected = engine_->Search(query);
  SearchStats stats;
  const std::vector<SearchHit> actual =
      loaded.value()->engine().Search(query, &stats);
  EXPECT_STREQ(stats.bound_backend, "int8");
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].table, actual[i].table);
    EXPECT_EQ(expected[i].score, actual[i].score);
  }
}

TEST_F(QuantSnapshotTest, MalformedQuantSectionsAreRejected) {
  {
    // Scale array shorter than the embedding count (8 rows).
    std::string tampered = clean_;
    ShrinkSection(&tampered, SectionKind::kQuantScales, 7 * sizeof(float));
    Status status = TryLoadBytes(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("quantized"), std::string::npos)
        << status.ToString();
  }
  {
    // Codes arena no longer count x dim (one row's worth short).
    std::string tampered = clean_;
    ShrinkSection(&tampered, SectionKind::kQuantCodes, 7 * 6);
    Status status = TryLoadBytes(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("count x dim"), std::string::npos)
        << status.ToString();
  }
  {
    // Error array missing entirely (kind forged to an unknown value): a
    // partial codes/scales/errors trio must be refused outright.
    std::string tampered = clean_;
    PatchEntry(&tampered, FindSection(tampered, SectionKind::kQuantErrors),
               [](SectionEntry* e) { e->kind = 913; });
    EXPECT_FALSE(TryLoadBytes(tampered).ok());
  }
  {
    // A byte flip inside the codes arena is caught by the checksum.
    std::string tampered = clean_;
    auto reader = SnapshotReader::Open(path_);
    ASSERT_TRUE(reader.ok());
    bool flipped = false;
    for (const SnapshotReader::SectionInfo& section :
         reader.value().sections()) {
      if (section.kind != static_cast<uint32_t>(SectionKind::kQuantCodes)) {
        continue;
      }
      tampered[section.offset + section.length / 2] ^= 0x01;
      flipped = true;
    }
    ASSERT_TRUE(flipped);
    Status status = TryLoadBytes(tampered);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace thetis
