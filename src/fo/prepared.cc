#include "fo/prepared.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/check.h"
#include "common/function_ref.h"
#include "fo/nnf.h"

namespace wave {

using internal::PreparedArg;
using internal::PreparedNode;

namespace {

// --- Compilation -----------------------------------------------------------

struct CompileContext {
  const Catalog* catalog;
  const PageResolver* pages;
  std::map<std::string, int> scope;  // variable name -> slot
  int next_slot = 0;
};

PreparedArg CompileTerm(const Term& t, CompileContext* ctx) {
  PreparedArg a;
  if (t.is_variable()) {
    a.is_var = true;
    auto it = ctx->scope.find(t.variable);
    WAVE_CHECK_MSG(it != ctx->scope.end(),
                   "unresolved variable '" << t.variable << "'");
    a.slot = it->second;
  } else {
    a.is_var = false;
    a.constant = t.constant;
  }
  return a;
}

/// True if enumerating this subtree can bind previously unbound variables
/// (used to order And children so binders run first).
bool CanBind(const PreparedNode& n) {
  switch (n.kind) {
    case Formula::Kind::kAtom:
    case Formula::Kind::kEquals:
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kExists:
      return true;
    default:
      return false;
  }
}

void MergeSlots(std::vector<int>* dst, const std::vector<int>& src) {
  std::vector<int> merged;
  std::set_union(dst->begin(), dst->end(), src.begin(), src.end(),
                 std::back_inserter(merged));
  *dst = std::move(merged);
}

std::unique_ptr<PreparedNode> Compile(const FormulaPtr& f,
                                      CompileContext* ctx) {
  auto node = std::make_unique<PreparedNode>();
  node->kind = f->kind();
  switch (f->kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      break;
    case Formula::Kind::kPage: {
      WAVE_CHECK_MSG(*ctx->pages != nullptr,
                     "page atom 'at " << f->page()
                                      << "' needs a page resolver");
      node->page = (*ctx->pages)(f->page());
      WAVE_CHECK_MSG(node->page >= 0, "unknown page '" << f->page() << "'");
      break;
    }
    case Formula::Kind::kAtom: {
      RelationId id = ctx->catalog->Find(f->relation());
      WAVE_CHECK_MSG(id != kInvalidRelation,
                     "unknown relation '" << f->relation() << "'");
      const RelationSchema& schema = ctx->catalog->schema(id);
      WAVE_CHECK_MSG(
          static_cast<int>(f->args().size()) == schema.arity,
          "atom " << f->relation() << "/" << f->args().size()
                  << " does not match declared arity " << schema.arity);
      node->relation = id;
      node->previous = f->previous();
      for (const Term& t : f->args()) {
        PreparedArg a = CompileTerm(t, ctx);
        if (a.is_var) node->subtree_slots.push_back(a.slot);
        node->args.push_back(a);
      }
      break;
    }
    case Formula::Kind::kEquals: {
      for (const Term& t : f->args()) {
        PreparedArg a = CompileTerm(t, ctx);
        if (a.is_var) node->subtree_slots.push_back(a.slot);
        node->args.push_back(a);
      }
      break;
    }
    case Formula::Kind::kNot: {
      // NNF guarantees the body is a leaf.
      node->children.push_back(Compile(f->body(), ctx));
      node->subtree_slots = node->children[0]->subtree_slots;
      break;
    }
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      auto l = Compile(f->left(), ctx);
      auto r = Compile(f->right(), ctx);
      node->subtree_slots = l->subtree_slots;
      MergeSlots(&node->subtree_slots, r->subtree_slots);
      if (f->kind() == Formula::Kind::kAnd && !CanBind(*l) && CanBind(*r)) {
        // Run the binding child first so the non-binding one sees bound
        // variables (order does not change And semantics).
        std::swap(l, r);
      }
      node->children.push_back(std::move(l));
      node->children.push_back(std::move(r));
      break;
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      // Allocate fresh slots for the quantified variables (shadowing any
      // outer variable of the same name for the duration of the body).
      std::map<std::string, int> saved = ctx->scope;
      for (const std::string& v : f->vars()) {
        node->quant_slots.push_back(ctx->next_slot);
        ctx->scope[v] = ctx->next_slot++;
      }
      // For Forall we compile the *negated* body: the quantifier holds iff
      // the negation has no satisfying assignment, which lets the same
      // positive-atom-driven search implement both quantifiers.
      FormulaPtr body = f->kind() == Formula::Kind::kForall
                            ? ToNNF(f->body(), /*negate=*/true)
                            : f->body();
      node->children.push_back(Compile(body, ctx));
      ctx->scope = std::move(saved);
      // The quantified slots are not free in this subtree: exclude them so
      // fallback grounding never pre-binds them.
      std::vector<int> quant_sorted = node->quant_slots;
      std::sort(quant_sorted.begin(), quant_sorted.end());
      std::set_difference(node->children[0]->subtree_slots.begin(),
                          node->children[0]->subtree_slots.end(),
                          quant_sorted.begin(), quant_sorted.end(),
                          std::back_inserter(node->subtree_slots));
      break;
    }
    case Formula::Kind::kImplies:
      WAVE_CHECK_MSG(false, "implication must be removed by NNF");
  }
  // Sort/unique leaf slot lists (inner nodes merged sorted lists already).
  std::sort(node->subtree_slots.begin(), node->subtree_slots.end());
  node->subtree_slots.erase(
      std::unique(node->subtree_slots.begin(), node->subtree_slots.end()),
      node->subtree_slots.end());
  return node;
}

// --- Evaluation --------------------------------------------------------------

struct EvalContext {
  const ConfigurationView* view;
  const std::vector<SymbolId>* domain;
  std::vector<SymbolId>* regs;
};

/// Called with the current bindings in place; returns false to stop.
using Emit = FunctionRef<bool()>;

/// Atoms with more arguments than this bind through a heap buffer.
constexpr size_t kInlineArity = 16;

bool EvalNode(const PreparedNode& n, EvalContext* ctx);

/// Enumerates extensions of the current partial register binding that
/// satisfy `n`, invoking `emit` for each (with bindings in place). `emit`
/// returns false to stop; EnumNode then returns false as well.
bool EnumNode(const PreparedNode& n, EvalContext* ctx, Emit emit);

SymbolId ArgValue(const PreparedArg& a, const EvalContext& ctx) {
  return a.is_var ? (*ctx.regs)[a.slot] : a.constant;
}

/// Binds every unbound slot in `slots[i..]` to every domain value in turn,
/// calling `fn` for each complete combination. Restores bindings.
bool ForEachBinding(const std::vector<int>& slots, size_t i, EvalContext* ctx,
                    Emit fn) {
  while (i < slots.size() && (*ctx->regs)[slots[i]] != kInvalidSymbol) ++i;
  if (i == slots.size()) return fn();
  int slot = slots[i];
  for (SymbolId v : *ctx->domain) {
    (*ctx->regs)[slot] = v;
    if (!ForEachBinding(slots, i + 1, ctx, fn)) {
      (*ctx->regs)[slot] = kInvalidSymbol;
      return false;
    }
  }
  (*ctx->regs)[slot] = kInvalidSymbol;
  return true;
}

/// Generic handler for nodes that cannot drive binding (negations,
/// universals): grounds the subtree's unbound variables over the domain,
/// then evaluates.
bool EnumViaEval(const PreparedNode& n, EvalContext* ctx, Emit emit) {
  return ForEachBinding(n.subtree_slots, 0, ctx, [&] {
    if (EvalNode(n, ctx)) return emit();
    return true;
  });
}

bool EnumNode(const PreparedNode& n, EvalContext* ctx, Emit emit) {
  switch (n.kind) {
    case Formula::Kind::kTrue:
      return emit();
    case Formula::Kind::kFalse:
      return true;
    case Formula::Kind::kPage:
      return ctx->view->current_page() == n.page ? emit() : true;
    case Formula::Kind::kEquals: {
      const PreparedArg& a = n.args[0];
      const PreparedArg& b = n.args[1];
      SymbolId va = ArgValue(a, *ctx);
      SymbolId vb = ArgValue(b, *ctx);
      if (va != kInvalidSymbol && vb != kInvalidSymbol) {
        return va == vb ? emit() : true;
      }
      if (va == kInvalidSymbol && vb == kInvalidSymbol) {
        // Both sides unbound: x = y (possibly the same variable).
        for (SymbolId v : *ctx->domain) {
          (*ctx->regs)[a.slot] = v;
          (*ctx->regs)[b.slot] = v;
          bool keep_going = emit();
          (*ctx->regs)[a.slot] = kInvalidSymbol;
          (*ctx->regs)[b.slot] = kInvalidSymbol;
          if (!keep_going) return false;
        }
        return true;
      }
      // Exactly one side is an unbound variable: propagate the binding.
      int slot = va == kInvalidSymbol ? a.slot : b.slot;
      SymbolId value = va == kInvalidSymbol ? vb : va;
      (*ctx->regs)[slot] = value;
      bool keep_going = emit();
      (*ctx->regs)[slot] = kInvalidSymbol;
      return keep_going;
    }
    case Formula::Kind::kAtom:
      return ctx->view->ForEachTuple(
          n.relation, n.previous, [&](const SymbolId* t) {
            // Match the tuple against the argument pattern, binding unbound
            // variables; record what we bind so we can backtrack.
            int bound[kInlineArity];
            int num_bound = 0;
            bool match = true;
            for (size_t i = 0; i < n.args.size(); ++i) {
              const PreparedArg& a = n.args[i];
              SymbolId expected = ArgValue(a, *ctx);
              if (expected == kInvalidSymbol) {
                (*ctx->regs)[a.slot] = t[i];
                WAVE_CHECK(num_bound < static_cast<int>(kInlineArity));
                bound[num_bound++] = a.slot;
              } else if (expected != t[i]) {
                match = false;
                break;
              }
            }
            bool keep_going = !match || emit();
            for (int i = 0; i < num_bound; ++i) {
              (*ctx->regs)[bound[i]] = kInvalidSymbol;
            }
            return keep_going;
          });
    case Formula::Kind::kAnd:
      return EnumNode(*n.children[0], ctx, [&] {
        return EnumNode(*n.children[1], ctx, emit);
      });
    case Formula::Kind::kOr:
      if (!EnumNode(*n.children[0], ctx, emit)) return false;
      return EnumNode(*n.children[1], ctx, emit);
    case Formula::Kind::kExists:
      // The body's enumeration binds the quantified slots; emit sees them
      // bound but callers only read free slots. Duplicate free-slot
      // assignments are deduplicated by the caller.
      return EnumNode(*n.children[0], ctx, emit);
    case Formula::Kind::kNot:
    case Formula::Kind::kForall:
      return EnumViaEval(n, ctx, emit);
    case Formula::Kind::kImplies:
      break;
  }
  WAVE_CHECK(false);
  return true;
}

bool EvalNode(const PreparedNode& n, EvalContext* ctx) {
  switch (n.kind) {
    case Formula::Kind::kTrue:
      return true;
    case Formula::Kind::kFalse:
      return false;
    case Formula::Kind::kPage:
      return ctx->view->current_page() == n.page;
    case Formula::Kind::kEquals: {
      SymbolId va = ArgValue(n.args[0], *ctx);
      SymbolId vb = ArgValue(n.args[1], *ctx);
      WAVE_CHECK(va != kInvalidSymbol && vb != kInvalidSymbol);
      return va == vb;
    }
    case Formula::Kind::kAtom: {
      SymbolId inline_values[kInlineArity];
      std::vector<SymbolId> heap_values;
      SymbolId* values = inline_values;
      if (n.args.size() > kInlineArity) {
        heap_values.resize(n.args.size());
        values = heap_values.data();
      }
      for (size_t i = 0; i < n.args.size(); ++i) {
        values[i] = ArgValue(n.args[i], *ctx);
        WAVE_CHECK(values[i] != kInvalidSymbol);
      }
      return ctx->view->Contains(n.relation, n.previous, values);
    }
    case Formula::Kind::kNot:
      return !EvalNode(*n.children[0], ctx);
    case Formula::Kind::kAnd:
      return EvalNode(*n.children[0], ctx) && EvalNode(*n.children[1], ctx);
    case Formula::Kind::kOr:
      return EvalNode(*n.children[0], ctx) || EvalNode(*n.children[1], ctx);
    case Formula::Kind::kExists: {
      bool found = false;
      EnumNode(*n.children[0], ctx, [&] {
        found = true;
        return false;  // early exit
      });
      return found;
    }
    case Formula::Kind::kForall: {
      // children[0] holds the compiled *negation* of the body: the
      // universal holds iff the negation has no witness.
      bool counterexample = false;
      EnumNode(*n.children[0], ctx, [&] {
        counterexample = true;
        return false;
      });
      return !counterexample;
    }
    case Formula::Kind::kImplies:
      break;
  }
  WAVE_CHECK(false);
  return false;
}

/// Appends the distinct rows among the `count` rows of `width` values in
/// `rows` to `out`, in lexicographic order, and returns how many.
size_t AppendSortedUnique(const std::vector<SymbolId>& rows, size_t count,
                          size_t width, std::vector<uint32_t>* order,
                          std::vector<SymbolId>* out) {
  if (count == 0) return 0;
  if (width == 0) return 1;  // every row is the empty tuple
  auto row = [&](uint32_t i) { return rows.data() + i * width; };
  order->resize(count);
  for (uint32_t i = 0; i < count; ++i) (*order)[i] = i;
  std::sort(order->begin(), order->end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(row(a), row(a) + width, row(b),
                                        row(b) + width);
  });
  size_t distinct = 0;
  const SymbolId* last = nullptr;
  for (uint32_t i : *order) {
    const SymbolId* r = row(i);
    if (last != nullptr && std::equal(r, r + width, last)) continue;
    out->insert(out->end(), r, r + width);
    last = r;
    ++distinct;
  }
  return distinct;
}

}  // namespace

PreparedFormula PreparedFormula::Prepare(
    const FormulaPtr& formula, const Catalog& catalog,
    const std::vector<std::string>& free_order, const PageResolver& pages) {
  // Sanity: every free variable of the formula must appear in free_order.
  {
    std::set<std::string> declared(free_order.begin(), free_order.end());
    for (const std::string& v : formula->FreeVariables()) {
      WAVE_CHECK_MSG(declared.count(v) > 0,
                     "free variable '" << v << "' missing from free_order");
    }
  }
  CompileContext ctx;
  ctx.catalog = &catalog;
  ctx.pages = &pages;
  for (const std::string& v : free_order) {
    WAVE_CHECK_MSG(ctx.scope.emplace(v, ctx.next_slot).second,
                   "duplicate free variable '" << v << "'");
    ++ctx.next_slot;
  }
  PreparedFormula out;
  out.num_free_ = static_cast<int>(free_order.size());
  for (int i = 0; i < out.num_free_; ++i) out.free_slots_.push_back(i);
  out.root_ = Compile(ToNNF(formula), &ctx);
  out.num_slots_ = ctx.next_slot;
  return out;
}

bool PreparedFormula::EvalClosed(const ConfigurationView& view,
                                 const std::vector<SymbolId>& domain,
                                 std::vector<SymbolId>* regs) const {
  for (int i = 0; i < num_free_; ++i) {
    WAVE_CHECK_MSG((*regs)[i] != kInvalidSymbol,
                   "EvalClosed requires all free slots bound");
  }
  EvalContext ctx{&view, &domain, regs};
  return EvalNode(*root_, &ctx);
}

size_t PreparedFormula::EnumerateSatisfying(
    const ConfigurationView& view, const std::vector<SymbolId>& domain,
    EvalScratch* scratch, std::vector<SymbolId>* out) const {
  scratch->regs.assign(num_slots_, kInvalidSymbol);
  scratch->rows.clear();
  EvalContext ctx{&view, &domain, &scratch->regs};
  size_t count = 0;
  auto record = [&] {
    scratch->rows.insert(scratch->rows.end(), scratch->regs.begin(),
                         scratch->regs.begin() + num_free_);
    ++count;
    return true;
  };
  // Free slots the formula never mentions stay unbound on emit and are
  // expanded over the domain afterwards.
  EnumNode(*root_, &ctx,
           [&] { return ForEachBinding(free_slots_, 0, &ctx, record); });
  return AppendSortedUnique(scratch->rows, count,
                            static_cast<size_t>(num_free_), &scratch->order,
                            out);
}

void PreparedFormula::EnumerateSatisfying(const ConfigurationView& view,
                                          const std::vector<SymbolId>& domain,
                                          std::vector<Tuple>* out) const {
  EvalScratch scratch;
  std::vector<SymbolId> values;
  const size_t count = EnumerateSatisfying(view, domain, &scratch, &values);
  for (size_t i = 0; i < count; ++i) {
    out->emplace_back(values.begin() + i * num_free_,
                      values.begin() + (i + 1) * num_free_);
  }
}

}  // namespace wave
