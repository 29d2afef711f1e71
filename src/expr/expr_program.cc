#include "expr/expr_program.h"

#include <algorithm>
#include <unordered_map>

#include "expr/value_kernels.h"

namespace beas {

namespace {

/// Static comparability: kNull operands always yield NULL at runtime, so
/// they are trivially sound.
bool StaticallyComparable(TypeId a, TypeId b) {
  if (a == TypeId::kNull || b == TypeId::kNull) return true;
  if (NumericFamilyType(a) && NumericFamilyType(b)) return true;
  return a == b;
}

bool StaticallyArithmetic(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kNull;
}

}  // namespace

// ---------------------------------------------------------------------------
// Compilation. EmitExpr returns the static result type (kNull = provably
// always NULL) or nullopt when the subtree is not soundly compilable. The
// recursion visits children left-to-right and registers literals at the
// node that owns them — BindLiterals repeats exactly this traversal.
// ---------------------------------------------------------------------------

std::optional<ExprProgram> ExprProgram::Compile(
    const Expression& expr, const std::vector<int64_t>& slot_of_column) {
  ExprProgram program;
  size_t depth = 0;

  // Recursive lambda via explicit function object.
  struct Emitter {
    ExprProgram* p;
    const std::vector<int64_t>& slots;
    size_t* depth;
    bool failed = false;

    void Push() {
      ++*depth;
      if (*depth > p->max_stack_) p->max_stack_ = *depth;
    }
    void Pop(size_t n) { *depth -= n; }

    /// Returns the static type of the subtree (kNull = always NULL).
    TypeId Emit(const Expression& e) {
      if (failed) return TypeId::kNull;
      switch (e.kind) {
        case ExprKind::kColumnRef: {
          if (e.column_index >= slots.size() ||
              slots[e.column_index] < 0) {
            failed = true;
            return TypeId::kNull;
          }
          Op op;
          op.code = OpCode::kPushCol;
          op.slot = static_cast<uint32_t>(slots[e.column_index]);
          p->ops_.push_back(op);
          Push();
          return e.column_type;
        }
        case ExprKind::kLiteral: {
          Op op;
          op.code = OpCode::kPushLit;
          op.lit_index = static_cast<uint32_t>(p->literal_types_.size());
          p->literal_types_.push_back(e.literal.type());
          p->ops_.push_back(op);
          Push();
          return e.literal.type();
        }
        case ExprKind::kCompare: {
          TypeId l = Emit(*e.children[0]);
          TypeId r = Emit(*e.children[1]);
          if (failed || !StaticallyComparable(l, r)) {
            failed = true;
            return TypeId::kNull;
          }
          Op op;
          op.code = OpCode::kCompare;
          op.cmp = e.cmp;
          p->ops_.push_back(op);
          Pop(1);
          return TypeId::kInt64;
        }
        case ExprKind::kLogic: {
          Emit(*e.children[0]);
          Emit(*e.children[1]);
          if (failed) return TypeId::kNull;
          Op op;
          op.code = e.logic == LogicOp::kAnd ? OpCode::kAnd : OpCode::kOr;
          p->ops_.push_back(op);
          Pop(1);
          return TypeId::kInt64;
        }
        case ExprKind::kNot: {
          Emit(*e.children[0]);
          if (failed) return TypeId::kNull;
          p->ops_.push_back(Op{OpCode::kNot, CompareOp::kEq, ArithOp::kAdd,
                               false, 0, 0, 0});
          return TypeId::kInt64;
        }
        case ExprKind::kNeg: {
          TypeId t = Emit(*e.children[0]);
          if (failed || !StaticallyArithmetic(t)) {
            failed = true;
            return TypeId::kNull;
          }
          p->ops_.push_back(Op{OpCode::kNeg, CompareOp::kEq, ArithOp::kAdd,
                               false, 0, 0, 0});
          return t;
        }
        case ExprKind::kArith: {
          TypeId l = Emit(*e.children[0]);
          TypeId r = Emit(*e.children[1]);
          if (failed || !StaticallyArithmetic(l) ||
              !StaticallyArithmetic(r)) {
            failed = true;
            return TypeId::kNull;
          }
          if (e.arith == ArithOp::kMod &&
              (l == TypeId::kDouble || r == TypeId::kDouble)) {
            failed = true;  // evaluator raises "% requires integers"
            return TypeId::kNull;
          }
          Op op;
          op.code = OpCode::kArith;
          op.arith = e.arith;
          p->ops_.push_back(op);
          Pop(1);
          if (l == TypeId::kNull || r == TypeId::kNull) return TypeId::kNull;
          return l == TypeId::kDouble || r == TypeId::kDouble
                     ? TypeId::kDouble
                     : TypeId::kInt64;
        }
        case ExprKind::kBetween: {
          TypeId v = Emit(*e.children[0]);
          TypeId lo = Emit(*e.children[1]);
          TypeId hi = Emit(*e.children[2]);
          if (failed || !StaticallyComparable(v, lo) ||
              !StaticallyComparable(v, hi)) {
            failed = true;
            return TypeId::kNull;
          }
          p->ops_.push_back(Op{OpCode::kBetween, CompareOp::kEq,
                               ArithOp::kAdd, false, 0, 0, 0});
          Pop(2);
          return TypeId::kInt64;
        }
        case ExprKind::kInList: {
          Emit(*e.children[0]);
          if (failed) return TypeId::kNull;
          Op op;
          op.code = OpCode::kInList;
          op.lit_index = static_cast<uint32_t>(p->literal_types_.size());
          op.list_count = static_cast<uint32_t>(e.in_values.size());
          for (const Value& v : e.in_values) {
            p->literal_types_.push_back(v.type());
          }
          p->ops_.push_back(op);
          return TypeId::kInt64;
        }
        case ExprKind::kIsNull: {
          Emit(*e.children[0]);
          if (failed) return TypeId::kNull;
          Op op;
          op.code = OpCode::kIsNull;
          op.negated = e.negated;
          p->ops_.push_back(op);
          return TypeId::kInt64;
        }
      }
      failed = true;
      return TypeId::kNull;
    }
  };

  Emitter emitter{&program, slot_of_column, &depth};
  emitter.Emit(expr);
  if (emitter.failed) return std::nullopt;
  program.DetectFastPattern();
  return program;
}

void ExprProgram::DetectFastPattern() {
  fast_ = FastPattern::kNone;
  if (ops_.empty() || ops_[0].code != OpCode::kPushCol) return;
  if (ops_.size() == 3 && ops_[1].code == OpCode::kPushLit &&
      ops_[2].code == OpCode::kCompare) {
    fast_ = FastPattern::kColCmpLit;
  } else if (ops_.size() == 3 && ops_[1].code == OpCode::kPushCol &&
             ops_[2].code == OpCode::kCompare) {
    fast_ = FastPattern::kColCmpCol;
  } else if (ops_.size() == 4 && ops_[1].code == OpCode::kPushLit &&
             ops_[2].code == OpCode::kPushLit &&
             ops_[3].code == OpCode::kBetween) {
    fast_ = FastPattern::kColBetween;
  } else if (ops_.size() == 2 && ops_[1].code == OpCode::kInList) {
    fast_ = FastPattern::kColInList;
  } else if (ops_.size() == 2 && ops_[1].code == OpCode::kIsNull) {
    fast_ = FastPattern::kColIsNull;
  }
}

namespace {

/// Applies a three-way comparison result to a CompareOp.
bool CmpPasses(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq: return c == 0;
    case CompareOp::kNe: return c != 0;
    case CompareOp::kLt: return c < 0;
    case CompareOp::kLe: return c <= 0;
    case CompareOp::kGt: return c > 0;
    case CompareOp::kGe: return c >= 0;
  }
  return false;
}

/// The code of `lit` in `dict`, or -1 when the string was never interned
/// (no stored value can equal it). Reuses the literal's own hash — a
/// dictionary-backed literal of another table costs zero byte hashing;
/// an inline literal is hashed once per batch, here.
int64_t LiteralCode(const StringDict& dict, const Value& lit) {
  if (lit.dict() == &dict) return lit.dict_code();
  return dict.FindWithHash(lit.AsString(), lit.Hash());
}

/// col-op-lit over an encoded column. Equality ops compare codes;
/// ordering ops compare codes against a binary-searched code bound when
/// the dictionary is sorted (zero byte decodes), and decode to bytes per
/// row otherwise.
void FilterEncodedCmp(const BatchColumn& col, CompareOp cmp, const Value& lit,
                      size_t num_rows, std::vector<char>* keep) {
  const StringDict& dict = *col.dict;
  if (lit.is_null()) {
    // compare-with-NULL is NULL: nothing passes.
    std::fill(keep->begin(), keep->begin() + num_rows, 0);
    return;
  }
  if (cmp == CompareOp::kEq || cmp == CompareOp::kNe) {
    int64_t code = LiteralCode(dict, lit);
    if (code < 0) {
      // Literal not in the dictionary: `=` folds to false for every row;
      // `<>` folds to true for every non-NULL row.
      for (size_t r = 0; r < num_rows; ++r) {
        if (!(*keep)[r]) continue;
        if (cmp == CompareOp::kEq || col.codes[r] == StringDict::kNullCode) {
          (*keep)[r] = 0;
        }
      }
      return;
    }
    uint32_t lit_code = static_cast<uint32_t>(code);
    for (size_t r = 0; r < num_rows; ++r) {
      if (!(*keep)[r]) continue;
      uint32_t c = col.codes[r];
      // kNullCode never equals a real code, so `=` rejects NULL for free.
      bool pass = cmp == CompareOp::kEq
                      ? c == lit_code
                      : c != lit_code && c != StringDict::kNullCode;
      if (!pass) (*keep)[r] = 0;
    }
    return;
  }
  std::string_view s = lit.AsString();
  if (dict.is_sorted()) {
    // Order-preserving codes: the literal becomes a code bound once per
    // batch, each row is a uint32 compare. kNullCode (0xFFFFFFFF) sits
    // above every real code, so the `<` forms exclude NULL for free; the
    // `>` forms exclude it explicitly.
    switch (cmp) {
      case CompareOp::kLt: {
        uint32_t bound = dict.LowerBoundCode(s);
        for (size_t r = 0; r < num_rows; ++r) {
          if ((*keep)[r] && col.codes[r] >= bound) (*keep)[r] = 0;
        }
        return;
      }
      case CompareOp::kLe: {
        uint32_t bound = dict.UpperBoundCode(s);
        for (size_t r = 0; r < num_rows; ++r) {
          if ((*keep)[r] && col.codes[r] >= bound) (*keep)[r] = 0;
        }
        return;
      }
      case CompareOp::kGt: {
        uint32_t bound = dict.UpperBoundCode(s);
        for (size_t r = 0; r < num_rows; ++r) {
          uint32_t c = col.codes[r];
          if ((*keep)[r] && (c < bound || c == StringDict::kNullCode)) {
            (*keep)[r] = 0;
          }
        }
        return;
      }
      case CompareOp::kGe: {
        uint32_t bound = dict.LowerBoundCode(s);
        for (size_t r = 0; r < num_rows; ++r) {
          uint32_t c = col.codes[r];
          if ((*keep)[r] && (c < bound || c == StringDict::kNullCode)) {
            (*keep)[r] = 0;
          }
        }
        return;
      }
      default:
        break;  // unreachable: equality handled above
    }
  }
  for (size_t r = 0; r < num_rows; ++r) {
    if (!(*keep)[r]) continue;
    uint32_t c = col.codes[r];
    if (c == StringDict::kNullCode) {
      (*keep)[r] = 0;
      continue;
    }
    ++tls_string_order_decodes;
    int three_way = dict.str(c).compare(s);
    three_way = three_way < 0 ? -1 : (three_way > 0 ? 1 : 0);
    if (!CmpPasses(cmp, three_way)) (*keep)[r] = 0;
  }
}

/// col-op-col over two encoded columns. Same dictionary: interning
/// deduplicates, so equality is a raw code compare, and ordering is too
/// once the dictionary is sorted. Different dictionaries: equality
/// conjuncts translate each *distinct* left code into the right
/// dictionary once per batch — FindWithHash with the left dictionary's
/// precomputed byte hash, so no bytes are hashed or decoded — and then
/// every row is a uint32 compare against the translated code. A left
/// string absent from the right dictionary can equal no right-column
/// value: `=` fails and `<>` passes for its rows. NULL on either side
/// yields SQL NULL, which a predicate drops, for `=` and `<>` alike.
/// Returns false for the shapes that still need bytes (ordering over an
/// unsorted or foreign dictionary); the caller falls back to the generic
/// row loop.
bool FilterEncodedColCmpCol(const BatchColumn& lhs, const BatchColumn& rhs,
                            CompareOp cmp, size_t num_rows,
                            std::vector<char>* keep) {
  const StringDict* left_dict = lhs.dict;
  const StringDict* right_dict = rhs.dict;
  bool equality = cmp == CompareOp::kEq || cmp == CompareOp::kNe;
  if (left_dict == right_dict) {
    if (!equality && !left_dict->is_sorted()) return false;
    for (size_t r = 0; r < num_rows; ++r) {
      if (!(*keep)[r]) continue;
      uint32_t a = lhs.codes[r];
      uint32_t b = rhs.codes[r];
      if (a == StringDict::kNullCode || b == StringDict::kNullCode) {
        (*keep)[r] = 0;
        continue;
      }
      int three_way = a < b ? -1 : (a > b ? 1 : 0);
      if (!CmpPasses(cmp, three_way)) (*keep)[r] = 0;
    }
    return true;
  }
  if (!equality) return false;
  // Lazily-filled translation table: left code -> right code, or -1 when
  // the left string was never interned on the right. Repeated codes — the
  // reason the column was dictionary-encoded — translate exactly once per
  // batch. A dense vector sized by the left dictionary is fastest when
  // the batch can plausibly touch most of it; when the dictionary dwarfs
  // the batch, its O(dict) zero-fill would dominate the rows actually
  // scanned, so a hash map bounded by distinct codes seen takes over.
  constexpr int64_t kUntranslated = -2;
  const bool dense = left_dict->size() <= 2 * num_rows + 64;
  std::vector<int64_t> dense_table;
  if (dense) dense_table.assign(left_dict->size(), kUntranslated);
  std::unordered_map<uint32_t, int64_t> sparse_table;
  auto translate = [&](uint32_t a) -> int64_t {
    int64_t* slot;
    if (dense) {
      slot = &dense_table[a];
    } else {
      slot = &sparse_table.emplace(a, kUntranslated).first->second;
    }
    if (*slot == kUntranslated) {
      ++tls_cross_dict_translates;
      *slot = right_dict->FindWithHash(left_dict->str(a), left_dict->hash(a));
    }
    return *slot;
  };
  for (size_t r = 0; r < num_rows; ++r) {
    if (!(*keep)[r]) continue;
    uint32_t a = lhs.codes[r];
    uint32_t b = rhs.codes[r];
    if (a == StringDict::kNullCode || b == StringDict::kNullCode) {
      (*keep)[r] = 0;
      continue;
    }
    int64_t t = translate(a);
    bool eq = t >= 0 && static_cast<uint32_t>(t) == b;
    if ((cmp == CompareOp::kEq ? eq : !eq) == false) (*keep)[r] = 0;
  }
  return true;
}

/// col BETWEEN lo AND hi over an encoded column: a code-interval test on
/// a sorted dictionary, byte order decoded per row otherwise.
void FilterEncodedBetween(const BatchColumn& col, const Value& lo,
                          const Value& hi, size_t num_rows,
                          std::vector<char>* keep) {
  const StringDict& dict = *col.dict;
  if (lo.is_null() || hi.is_null()) {
    std::fill(keep->begin(), keep->begin() + num_rows, 0);
    return;
  }
  std::string_view lo_s = lo.AsString();
  std::string_view hi_s = hi.AsString();
  if (dict.is_sorted()) {
    // Pass iff lb <= code < ub. kNullCode exceeds every real code, so
    // the upper bound rejects NULL rows for free.
    uint32_t lb = dict.LowerBoundCode(lo_s);
    uint32_t ub = dict.UpperBoundCode(hi_s);
    for (size_t r = 0; r < num_rows; ++r) {
      uint32_t c = col.codes[r];
      if ((*keep)[r] && (c < lb || c >= ub)) (*keep)[r] = 0;
    }
    return;
  }
  for (size_t r = 0; r < num_rows; ++r) {
    if (!(*keep)[r]) continue;
    uint32_t c = col.codes[r];
    if (c == StringDict::kNullCode) {
      (*keep)[r] = 0;
      continue;
    }
    tls_string_order_decodes += 2;
    const std::string& v = dict.str(c);
    if (v.compare(lo_s) < 0 || v.compare(hi_s) > 0) (*keep)[r] = 0;
  }
}

/// col IN (...) over an encoded column: the list becomes a code set once
/// per batch; items absent from the dictionary (or of other types) can
/// never match and drop out of the set.
void FilterEncodedInList(const BatchColumn& col, const Value* items,
                         size_t num_items, size_t num_rows,
                         std::vector<char>* keep) {
  const StringDict& dict = *col.dict;
  std::vector<uint32_t> codes;
  codes.reserve(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    const Value& item = items[i];
    if (item.is_null() || item.type() != TypeId::kString) continue;
    int64_t code = LiteralCode(dict, item);
    if (code >= 0) codes.push_back(static_cast<uint32_t>(code));
  }
  for (size_t r = 0; r < num_rows; ++r) {
    if (!(*keep)[r]) continue;
    uint32_t c = col.codes[r];
    bool found = false;
    if (c != StringDict::kNullCode) {
      for (uint32_t code : codes) {
        if (c == code) {
          found = true;
          break;
        }
      }
    }
    if (!found) (*keep)[r] = 0;
  }
}

/// The literal-collection twin of the compile traversal: children
/// left-to-right, literals registered at the owning node.
void CollectLiterals(const Expression& e, std::vector<Value>* out) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      out->push_back(e.literal);
      return;
    case ExprKind::kInList:
      CollectLiterals(*e.children[0], out);
      for (const Value& v : e.in_values) out->push_back(v);
      return;
    default:
      for (const ExprPtr& child : e.children) CollectLiterals(*child, out);
      return;
  }
}

}  // namespace

Result<std::vector<Value>> ExprProgram::BindLiterals(
    const Expression& expr) const {
  std::vector<Value> literals;
  literals.reserve(literal_types_.size());
  CollectLiterals(expr, &literals);
  if (literals.size() != literal_types_.size()) {
    return Status::Internal("literal arity diverged from compiled program");
  }
  for (size_t i = 0; i < literals.size(); ++i) {
    if (literals[i].type() != literal_types_[i]) {
      return Status::Internal("literal type diverged from compiled program");
    }
  }
  return literals;
}

Value ExprProgram::EvalRow(const BatchColumn* cols, size_t row,
                           const std::vector<Value>& literals,
                           std::vector<Value>* stack) const {
  stack->clear();
  for (const Op& op : ops_) {
    switch (op.code) {
      case OpCode::kPushCol:
        stack->push_back(cols[op.slot].At(row));
        break;
      case OpCode::kPushLit:
        stack->push_back(literals[op.lit_index]);
        break;
      case OpCode::kCompare: {
        Value r = std::move(stack->back());
        stack->pop_back();
        stack->back() = CompareValuesTotal(op.cmp, stack->back(), r);
        break;
      }
      case OpCode::kAnd: {
        Value r = std::move(stack->back());
        stack->pop_back();
        const Value& l = stack->back();
        bool l_false = !l.is_null() && l.AsInt64() == 0;
        bool r_false = !r.is_null() && r.AsInt64() == 0;
        if (l_false || r_false) {
          stack->back() = BoolValueOf(false);
        } else if (l.is_null() || r.is_null()) {
          stack->back() = Value::Null();
        } else {
          stack->back() = BoolValueOf(true);
        }
        break;
      }
      case OpCode::kOr: {
        Value r = std::move(stack->back());
        stack->pop_back();
        const Value& l = stack->back();
        bool l_true = !l.is_null() && l.AsInt64() != 0;
        bool r_true = !r.is_null() && r.AsInt64() != 0;
        if (l_true || r_true) {
          stack->back() = BoolValueOf(true);
        } else if (l.is_null() || r.is_null()) {
          stack->back() = Value::Null();
        } else {
          stack->back() = BoolValueOf(false);
        }
        break;
      }
      case OpCode::kNot: {
        const Value& v = stack->back();
        stack->back() =
            v.is_null() ? Value::Null() : BoolValueOf(v.AsInt64() == 0);
        break;
      }
      case OpCode::kNeg: {
        const Value& v = stack->back();
        if (v.is_null()) {
          stack->back() = Value::Null();
        } else if (v.type() == TypeId::kInt64) {
          stack->back() = Value::Int64(-v.AsInt64());
        } else {
          stack->back() = Value::Double(-v.AsDouble());
        }
        break;
      }
      case OpCode::kArith: {
        Value r = std::move(stack->back());
        stack->pop_back();
        stack->back() = ArithValuesTotal(op.arith, stack->back(), r);
        break;
      }
      case OpCode::kBetween: {
        Value hi = std::move(stack->back());
        stack->pop_back();
        Value lo = std::move(stack->back());
        stack->pop_back();
        const Value& v = stack->back();
        Value ge = CompareValuesTotal(CompareOp::kGe, v, lo);
        Value le = CompareValuesTotal(CompareOp::kLe, v, hi);
        if (ge.is_null() || le.is_null()) {
          stack->back() = Value::Null();
        } else {
          stack->back() = BoolValueOf(ge.AsInt64() != 0 && le.AsInt64() != 0);
        }
        break;
      }
      case OpCode::kInList: {
        const Value& v = stack->back();
        if (v.is_null()) {
          stack->back() = Value::Null();
          break;
        }
        bool found = false;
        for (uint32_t i = 0; i < op.list_count && !found; ++i) {
          const Value& item = literals[op.lit_index + i];
          if (item.is_null()) continue;
          found = ComparableValues(v, item) && v.Compare(item) == 0;
        }
        stack->back() = BoolValueOf(found);
        break;
      }
      case OpCode::kIsNull: {
        bool is_null = stack->back().is_null();
        stack->back() = BoolValueOf(op.negated ? !is_null : is_null);
        break;
      }
    }
  }
  return std::move(stack->back());
}

void ExprProgram::FilterBatch(const BatchColumn* cols, size_t num_rows,
                              const std::vector<Value>& literals,
                              std::vector<char>* keep) const {
  switch (fast_) {
    case FastPattern::kColCmpLit: {
      const BatchColumn& col = cols[ops_[0].slot];
      const Value& lit = literals[ops_[1].lit_index];
      CompareOp cmp = ops_[2].cmp;
      if (col.encoded()) {
        FilterEncodedCmp(col, cmp, lit, num_rows, keep);
        return;
      }
      for (size_t r = 0; r < num_rows; ++r) {
        if (!(*keep)[r]) continue;
        Value v = CompareValuesTotal(cmp, col.values[r], lit);
        if (v.is_null() || v.AsInt64() == 0) (*keep)[r] = 0;
      }
      return;
    }
    case FastPattern::kColCmpCol: {
      const BatchColumn& lhs = cols[ops_[0].slot];
      const BatchColumn& rhs = cols[ops_[1].slot];
      CompareOp cmp = ops_[2].cmp;
      if (lhs.encoded() && rhs.encoded() &&
          FilterEncodedColCmpCol(lhs, rhs, cmp, num_rows, keep)) {
        return;
      }
      // Generic or mixed representations (or an ordering that needs
      // bytes): At() materializes dictionary-backed Values without byte
      // copies and CompareValuesTotal carries the three-valued logic.
      for (size_t r = 0; r < num_rows; ++r) {
        if (!(*keep)[r]) continue;
        Value v = CompareValuesTotal(cmp, lhs.At(r), rhs.At(r));
        if (v.is_null() || v.AsInt64() == 0) (*keep)[r] = 0;
      }
      return;
    }
    case FastPattern::kColBetween: {
      const BatchColumn& col = cols[ops_[0].slot];
      const Value& lo = literals[ops_[1].lit_index];
      const Value& hi = literals[ops_[2].lit_index];
      if (col.encoded()) {
        FilterEncodedBetween(col, lo, hi, num_rows, keep);
        return;
      }
      for (size_t r = 0; r < num_rows; ++r) {
        if (!(*keep)[r]) continue;
        Value ge = CompareValuesTotal(CompareOp::kGe, col.values[r], lo);
        Value le = CompareValuesTotal(CompareOp::kLe, col.values[r], hi);
        bool pass = !ge.is_null() && !le.is_null() && ge.AsInt64() != 0 &&
                    le.AsInt64() != 0;
        if (!pass) (*keep)[r] = 0;
      }
      return;
    }
    case FastPattern::kColInList: {
      const BatchColumn& col = cols[ops_[0].slot];
      const Op& in = ops_[1];
      if (col.encoded()) {
        FilterEncodedInList(col, literals.data() + in.lit_index,
                            in.list_count, num_rows, keep);
        return;
      }
      for (size_t r = 0; r < num_rows; ++r) {
        if (!(*keep)[r]) continue;
        const Value& v = col.values[r];
        if (v.is_null()) {
          (*keep)[r] = 0;
          continue;
        }
        bool found = false;
        for (uint32_t i = 0; i < in.list_count && !found; ++i) {
          const Value& item = literals[in.lit_index + i];
          if (item.is_null()) continue;
          found = ComparableValues(v, item) && v.Compare(item) == 0;
        }
        if (!found) (*keep)[r] = 0;
      }
      return;
    }
    case FastPattern::kColIsNull: {
      const BatchColumn& col = cols[ops_[0].slot];
      bool negated = ops_[1].negated;
      if (col.encoded()) {
        for (size_t r = 0; r < num_rows; ++r) {
          if (!(*keep)[r]) continue;
          bool is_null = col.codes[r] == StringDict::kNullCode;
          if ((negated ? !is_null : is_null) == false) (*keep)[r] = 0;
        }
        return;
      }
      for (size_t r = 0; r < num_rows; ++r) {
        if (!(*keep)[r]) continue;
        bool is_null = col.values[r].is_null();
        if ((negated ? !is_null : is_null) == false) (*keep)[r] = 0;
      }
      return;
    }
    case FastPattern::kNone:
      break;
  }
  std::vector<Value> stack;
  stack.reserve(max_stack_);
  for (size_t r = 0; r < num_rows; ++r) {
    if (!(*keep)[r]) continue;
    Value v = EvalRow(cols, r, literals, &stack);
    if (v.is_null() || v.AsInt64() == 0) (*keep)[r] = 0;
  }
}

}  // namespace beas
