// Relational schema catalog for a Web application specification.
//
// The paper's model (Section 2.1) partitions relations into kinds:
//   - database relations  (fixed but unknown content; never updated in a run)
//   - state relations     (updated by state rules; persist across steps)
//   - input relations     (option lists; hold at most one user-chosen tuple)
//   - input constants     (text inputs; modeled here as arity-1 relations
//                          holding at most one value)
//   - action relations    (write-only outputs computed at each step)
// Previous inputs (`prev R`) are the same input relations read one step late;
// they are not separate catalog entries.
#ifndef WAVE_RELATIONAL_SCHEMA_H_
#define WAVE_RELATIONAL_SCHEMA_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "common/symbol_table.h"

namespace wave {

/// Which part of a configuration a relation belongs to.
enum class RelationKind {
  kDatabase,
  kState,
  kInput,
  kInputConstant,  // text input; arity 1, at most one tuple
  kAction,
};

/// Human-readable kind name ("database", "state", ...).
const char* RelationKindName(RelationKind kind);

/// True for the kinds the user chooses each step: input relations and
/// input constants.
inline bool IsInputKind(RelationKind kind) {
  return kind == RelationKind::kInput || kind == RelationKind::kInputConstant;
}

/// Dense id of a relation within a `Catalog`.
using RelationId = int32_t;

inline constexpr RelationId kInvalidRelation = -1;

/// Declaration of a single relation.
struct RelationSchema {
  std::string name;
  int arity = 0;
  RelationKind kind = RelationKind::kDatabase;
  /// Optional attribute names (size == arity when present; used only for
  /// printing and error messages).
  std::vector<std::string> attributes;
};

/// Catalog of all relations of a spec, with by-name lookup.
///
/// Relation ids are dense indices in declaration order, so per-relation data
/// elsewhere (bitmap layouts, candidate-tuple sets) can be plain vectors.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = default;
  Catalog& operator=(const Catalog&) = default;

  /// Declares a relation; the name must be unused. Returns its id.
  RelationId Declare(RelationSchema schema);

  /// Returns the id for `name` or `kInvalidRelation`.
  RelationId Find(std::string_view name) const;

  const RelationSchema& schema(RelationId id) const { return schemas_[id]; }
  int size() const { return static_cast<int>(schemas_.size()); }

  /// Ids of all relations of `kind`, in declaration order.
  std::vector<RelationId> IdsOfKind(RelationKind kind) const;

 private:
  std::vector<RelationSchema> schemas_;
  StringMap<RelationId> by_name_;
};

}  // namespace wave

#endif  // WAVE_RELATIONAL_SCHEMA_H_
