#include "relational/schema.h"

#include "common/check.h"

namespace wave {

const char* RelationKindName(RelationKind kind) {
  switch (kind) {
    case RelationKind::kDatabase:
      return "database";
    case RelationKind::kState:
      return "state";
    case RelationKind::kInput:
      return "input";
    case RelationKind::kInputConstant:
      return "input-constant";
    case RelationKind::kAction:
      return "action";
  }
  return "unknown";
}

RelationId Catalog::Declare(RelationSchema schema) {
  WAVE_CHECK_MSG(by_name_.find(schema.name) == by_name_.end(),
                 "relation '" << schema.name << "' declared twice");
  WAVE_CHECK_MSG(schema.arity >= 0, "negative arity for " << schema.name);
  WAVE_CHECK_MSG(
      schema.attributes.empty() ||
          static_cast<int>(schema.attributes.size()) == schema.arity,
      "attribute list of '" << schema.name << "' does not match arity");
  if (schema.kind == RelationKind::kInputConstant) {
    WAVE_CHECK_MSG(schema.arity == 1,
                   "input constant '" << schema.name << "' must have arity 1");
  }
  RelationId id = static_cast<RelationId>(schemas_.size());
  by_name_.emplace(schema.name, id);
  schemas_.push_back(std::move(schema));
  return id;
}

RelationId Catalog::Find(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidRelation : it->second;
}

std::vector<RelationId> Catalog::IdsOfKind(RelationKind kind) const {
  std::vector<RelationId> out;
  for (RelationId id = 0; id < size(); ++id) {
    if (schemas_[id].kind == kind) out.push_back(id);
  }
  return out;
}

}  // namespace wave
