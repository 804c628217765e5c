#include "kg/knowledge_graph.h"

#include <algorithm>
#include <unordered_set>

namespace thetis {

Result<EntityId> KnowledgeGraph::AddEntity(const std::string& label) {
  auto [it, inserted] =
      by_label_.emplace(label, static_cast<EntityId>(labels_.size()));
  if (!inserted) {
    return Status::AlreadyExists("entity '" + label + "' already exists");
  }
  labels_.push_back(label);
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  entity_types_.emplace_back();
  return it->second;
}

PredicateId KnowledgeGraph::InternPredicate(const std::string& label) {
  auto [it, inserted] = predicate_by_label_.emplace(
      label, static_cast<PredicateId>(predicate_labels_.size()));
  if (inserted) predicate_labels_.push_back(label);
  return it->second;
}

Status KnowledgeGraph::AddEdge(EntityId src, PredicateId predicate,
                               EntityId dst) {
  if (src >= labels_.size() || dst >= labels_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (predicate >= predicate_labels_.size()) {
    return Status::InvalidArgument("predicate id out of range");
  }
  out_edges_[src].push_back(Edge{predicate, dst});
  in_edges_[dst].push_back(Edge{predicate, src});
  ++num_edges_;
  return Status::Ok();
}

Status KnowledgeGraph::AddEntityType(EntityId e, TypeId type) {
  if (e >= labels_.size()) {
    return Status::InvalidArgument("entity id out of range");
  }
  if (type >= taxonomy_.size()) {
    return Status::InvalidArgument("type id out of range");
  }
  auto& types = entity_types_[e];
  auto it = std::lower_bound(types.begin(), types.end(), type);
  if (it == types.end() || *it != type) types.insert(it, type);
  return Status::Ok();
}

Result<EntityId> KnowledgeGraph::FindByLabel(const std::string& label) const {
  auto it = by_label_.find(label);
  if (it == by_label_.end()) return Status::NotFound("entity '" + label + "'");
  return it->second;
}

std::vector<TypeId> KnowledgeGraph::TypeSet(EntityId e,
                                            bool include_ancestors) const {
  const auto& direct = entity_types_[e];
  if (!include_ancestors) return direct;
  // Direct types often share ancestors: concatenate every ancestor path,
  // then sort and drop the repeats.
  std::vector<TypeId> out;
  for (TypeId t : direct) {
    for (; t != kNoType; t = taxonomy_.parent(t)) out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<PredicateId> KnowledgeGraph::PredicateSet(EntityId e) const {
  std::unordered_set<PredicateId> seen;
  for (const Edge& edge : out_edges_[e]) seen.insert(edge.predicate);
  for (const Edge& edge : in_edges_[e]) seen.insert(edge.predicate);
  std::vector<PredicateId> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

KgStats KnowledgeGraph::ComputeStats() const {
  KgStats stats;
  stats.num_entities = labels_.size();
  stats.num_edges = num_edges_;
  stats.num_types = taxonomy_.size();
  stats.num_predicates = predicate_labels_.size();
  if (labels_.empty()) return stats;
  double types = 0.0;
  for (const auto& t : entity_types_) types += static_cast<double>(t.size());
  stats.mean_types_per_entity = types / static_cast<double>(labels_.size());
  stats.mean_out_degree =
      static_cast<double>(num_edges_) / static_cast<double>(labels_.size());
  return stats;
}

}  // namespace thetis
