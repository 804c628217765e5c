#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "benchgen/synthetic_kg.h"
#include "kg/knowledge_graph.h"
#include "kg/taxonomy.h"
#include "kg/triple_io.h"

namespace thetis {
namespace {

// --- Taxonomy -----------------------------------------------------------------

Taxonomy MakeTaxonomy() {
  Taxonomy tax;
  TypeId thing = tax.AddType("Thing").value();
  TypeId org = tax.AddType("Organisation", thing).value();
  TypeId team = tax.AddType("SportsTeam", org).value();
  TypeId baseball = tax.AddType("BaseballTeam", team).value();
  (void)baseball;
  TypeId person = tax.AddType("Person", thing).value();
  (void)person;
  tax.AddType("Athlete", person).value();
  return tax;
}

TEST(TaxonomyTest, AddAndFind) {
  Taxonomy tax = MakeTaxonomy();
  EXPECT_EQ(tax.size(), 6u);
  EXPECT_EQ(tax.label(tax.FindByLabel("SportsTeam").value()), "SportsTeam");
  EXPECT_FALSE(tax.FindByLabel("Nope").ok());
}

TEST(TaxonomyTest, DuplicateLabelRejected) {
  Taxonomy tax = MakeTaxonomy();
  EXPECT_FALSE(tax.AddType("Thing").ok());
}

TEST(TaxonomyTest, BadParentRejected) {
  Taxonomy tax;
  EXPECT_FALSE(tax.AddType("X", 7).ok());
}

TEST(TaxonomyTest, Depth) {
  Taxonomy tax = MakeTaxonomy();
  EXPECT_EQ(tax.Depth(tax.FindByLabel("Thing").value()), 0u);
  EXPECT_EQ(tax.Depth(tax.FindByLabel("BaseballTeam").value()), 3u);
}

TEST(TaxonomyTest, SelfAndAncestorsOrder) {
  Taxonomy tax = MakeTaxonomy();
  TypeId baseball = tax.FindByLabel("BaseballTeam").value();
  auto chain = tax.SelfAndAncestors(baseball);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(tax.label(chain[0]), "BaseballTeam");
  EXPECT_EQ(tax.label(chain[3]), "Thing");
}

TEST(TaxonomyTest, IsAncestorOrSelf) {
  Taxonomy tax = MakeTaxonomy();
  TypeId thing = tax.FindByLabel("Thing").value();
  TypeId baseball = tax.FindByLabel("BaseballTeam").value();
  TypeId athlete = tax.FindByLabel("Athlete").value();
  EXPECT_TRUE(tax.IsAncestorOrSelf(thing, baseball));
  EXPECT_TRUE(tax.IsAncestorOrSelf(baseball, baseball));
  EXPECT_FALSE(tax.IsAncestorOrSelf(baseball, thing));
  EXPECT_FALSE(tax.IsAncestorOrSelf(athlete, baseball));
}

TEST(TaxonomyTest, LowestCommonAncestor) {
  Taxonomy tax = MakeTaxonomy();
  TypeId baseball = tax.FindByLabel("BaseballTeam").value();
  TypeId athlete = tax.FindByLabel("Athlete").value();
  TypeId team = tax.FindByLabel("SportsTeam").value();
  EXPECT_EQ(tax.LowestCommonAncestor(baseball, athlete),
            tax.FindByLabel("Thing").value());
  EXPECT_EQ(tax.LowestCommonAncestor(baseball, team), team);
  EXPECT_EQ(tax.LowestCommonAncestor(team, team), team);
}

TEST(TaxonomyTest, Children) {
  Taxonomy tax = MakeTaxonomy();
  TypeId thing = tax.FindByLabel("Thing").value();
  auto children = tax.Children(thing);
  EXPECT_EQ(children.size(), 2u);  // Organisation, Person
}

// --- KnowledgeGraph -------------------------------------------------------------

KnowledgeGraph MakeKg() {
  KnowledgeGraph kg;
  Taxonomy* tax = kg.mutable_taxonomy();
  TypeId thing = tax->AddType("Thing").value();
  TypeId person = tax->AddType("Person", thing).value();
  TypeId athlete = tax->AddType("Athlete", person).value();
  TypeId org = tax->AddType("Organisation", thing).value();
  TypeId team = tax->AddType("BaseballTeam", org).value();

  EntityId santo = kg.AddEntity("Ron Santo").value();
  EntityId cubs = kg.AddEntity("Chicago Cubs").value();
  EntityId stetter = kg.AddEntity("Mitch Stetter").value();
  PredicateId plays = kg.InternPredicate("playsFor");
  EXPECT_TRUE(kg.AddEdge(santo, plays, cubs).ok());
  EXPECT_TRUE(kg.AddEntityType(santo, athlete).ok());
  EXPECT_TRUE(kg.AddEntityType(cubs, team).ok());
  EXPECT_TRUE(kg.AddEntityType(stetter, athlete).ok());
  return kg;
}

TEST(KnowledgeGraphTest, BasicCounts) {
  KnowledgeGraph kg = MakeKg();
  EXPECT_EQ(kg.num_entities(), 3u);
  EXPECT_EQ(kg.num_edges(), 1u);
  EXPECT_EQ(kg.num_predicates(), 1u);
}

TEST(KnowledgeGraphTest, DuplicateEntityRejected) {
  KnowledgeGraph kg = MakeKg();
  EXPECT_FALSE(kg.AddEntity("Ron Santo").ok());
}

TEST(KnowledgeGraphTest, PredicateInterningIsIdempotent) {
  KnowledgeGraph kg = MakeKg();
  PredicateId a = kg.InternPredicate("playsFor");
  PredicateId b = kg.InternPredicate("playsFor");
  EXPECT_EQ(a, b);
  EXPECT_EQ(kg.num_predicates(), 1u);
}

TEST(KnowledgeGraphTest, EdgesVisibleBothDirections) {
  KnowledgeGraph kg = MakeKg();
  EntityId santo = kg.FindByLabel("Ron Santo").value();
  EntityId cubs = kg.FindByLabel("Chicago Cubs").value();
  ASSERT_EQ(kg.OutEdges(santo).size(), 1u);
  EXPECT_EQ(kg.OutEdges(santo)[0].dst, cubs);
  ASSERT_EQ(kg.InEdges(cubs).size(), 1u);
  EXPECT_EQ(kg.InEdges(cubs)[0].dst, santo);
}

TEST(KnowledgeGraphTest, EdgeValidation) {
  KnowledgeGraph kg = MakeKg();
  EXPECT_FALSE(kg.AddEdge(0, 0, 99).ok());
  EXPECT_FALSE(kg.AddEdge(99, 0, 0).ok());
  EXPECT_FALSE(kg.AddEdge(0, 99, 1).ok());
}

TEST(KnowledgeGraphTest, TypeSetWithAncestors) {
  KnowledgeGraph kg = MakeKg();
  EntityId santo = kg.FindByLabel("Ron Santo").value();
  auto direct = kg.TypeSet(santo, false);
  EXPECT_EQ(direct.size(), 1u);  // Athlete only
  auto expanded = kg.TypeSet(santo, true);
  EXPECT_EQ(expanded.size(), 3u);  // Athlete, Person, Thing
}

TEST(KnowledgeGraphTest, TypeSetMatchesHashSetExpansionOnGeneratedKg) {
  benchgen::SyntheticKgOptions options;
  options.seed = 29;
  const benchgen::SyntheticKg generated = benchgen::GenerateSyntheticKg(options);
  const KnowledgeGraph& kg = generated.kg;
  size_t shared_ancestors = 0;
  for (EntityId e = 0; e < kg.num_entities(); ++e) {
    // The definition: the union of every direct type's ancestor path.
    std::unordered_set<TypeId> all;
    size_t path_types = 0;
    for (TypeId t : kg.DirectTypes(e)) {
      for (TypeId a : kg.taxonomy().SelfAndAncestors(t)) {
        all.insert(a);
        ++path_types;
      }
    }
    std::vector<TypeId> want(all.begin(), all.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(kg.TypeSet(e, /*include_ancestors=*/true), want) << e;
    EXPECT_EQ(kg.TypeSet(e, /*include_ancestors=*/false), kg.DirectTypes(e));
    if (path_types > all.size()) ++shared_ancestors;
  }
  // Many entities have several direct types whose paths meet.
  EXPECT_GT(shared_ancestors, kg.num_entities() / 10);
}

TEST(KnowledgeGraphTest, AddEntityTypeIdempotent) {
  KnowledgeGraph kg = MakeKg();
  EntityId santo = kg.FindByLabel("Ron Santo").value();
  TypeId athlete = kg.taxonomy().FindByLabel("Athlete").value();
  ASSERT_TRUE(kg.AddEntityType(santo, athlete).ok());
  EXPECT_EQ(kg.DirectTypes(santo).size(), 1u);
}

TEST(KnowledgeGraphTest, PredicateSet) {
  KnowledgeGraph kg = MakeKg();
  EntityId santo = kg.FindByLabel("Ron Santo").value();
  EntityId cubs = kg.FindByLabel("Chicago Cubs").value();
  EntityId stetter = kg.FindByLabel("Mitch Stetter").value();
  EXPECT_EQ(kg.PredicateSet(santo).size(), 1u);
  EXPECT_EQ(kg.PredicateSet(cubs).size(), 1u);
  EXPECT_TRUE(kg.PredicateSet(stetter).empty());
}

TEST(KnowledgeGraphTest, Stats) {
  KnowledgeGraph kg = MakeKg();
  KgStats stats = kg.ComputeStats();
  EXPECT_EQ(stats.num_entities, 3u);
  EXPECT_EQ(stats.num_edges, 1u);
  EXPECT_EQ(stats.num_types, 5u);
  EXPECT_NEAR(stats.mean_types_per_entity, 1.0, 1e-12);
}

// --- Triple IO --------------------------------------------------------------------

TEST(TripleIoTest, RoundTrip) {
  KnowledgeGraph kg = MakeKg();
  std::string text = WriteTriples(kg);
  auto parsed = ParseTriples(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const KnowledgeGraph& kg2 = parsed.value();
  EXPECT_EQ(kg2.num_entities(), kg.num_entities());
  EXPECT_EQ(kg2.num_edges(), kg.num_edges());
  EXPECT_EQ(kg2.taxonomy().size(), kg.taxonomy().size());
  EntityId santo = kg2.FindByLabel("Ron Santo").value();
  EXPECT_EQ(kg2.TypeSet(santo, true).size(), 3u);
}

TEST(TripleIoTest, CommentsAndBlankLinesIgnored) {
  auto parsed = ParseTriples("# a comment\n\nentity foo\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().num_entities(), 1u);
}

TEST(TripleIoTest, QuotedLabelsWithSpaces) {
  auto parsed = ParseTriples(
      "type \"Baseball Team\"\n"
      "entity \"Chicago Cubs\"\n"
      "istype \"Chicago Cubs\" \"Baseball Team\"\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().FindByLabel("Chicago Cubs").ok());
}

TEST(TripleIoTest, UnknownEntityIsError) {
  auto parsed = ParseTriples("edge a p b\n");
  EXPECT_FALSE(parsed.ok());
}

TEST(TripleIoTest, UnknownStatementIsError) {
  auto parsed = ParseTriples("frobnicate x\n");
  EXPECT_FALSE(parsed.ok());
}

TEST(TripleIoTest, BadArityIsError) {
  EXPECT_FALSE(ParseTriples("entity\n").ok());
  EXPECT_FALSE(ParseTriples("istype a\n").ok());
  EXPECT_FALSE(ParseTriples("type\n").ok());
}

TEST(TripleIoTest, EscapedQuotesRoundTrip) {
  KnowledgeGraph kg;
  ASSERT_TRUE(kg.AddEntity("the \"special\" one").ok());
  auto parsed = ParseTriples(WriteTriples(kg));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().FindByLabel("the \"special\" one").ok());
}

}  // namespace
}  // namespace thetis
