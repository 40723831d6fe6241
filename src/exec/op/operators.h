// Push-based plan operators over the exec::Backend concept: the layer that
// turns the single-join engine into a query-plan engine (ROADMAP item 3).
//
// Model: a plan is a chain of Operator<B> stages. The Scan source (see
// plan.h's RunPlan) walks R through ForEachPartitionTuples with independent
// morsels, packs rows into fixed-capacity Batches, and pushes each batch
// down the chain — filter, S-pointer dereference, aggregation — so a plan
// like σ(R) ⋈ S → Γ(group, agg) runs in ONE pass over morsel output with
// no materialized intermediate.
//
// Determinism through parallelism: operators keep NO cross-morsel mutable
// state except per-worker-slot accumulators (keyed by ex.WorkerSlot(),
// sized by ex.WorkerSlots()). Every accumulator is commutative (sums,
// counts, min/max, hash-keyed aggregate merge), and the serial Close()
// after the pass barrier merges slots and sorts groups by key — so output
// rows, aggregates, and checksums are bit-identical across steal orders,
// worker counts, and backends. This is the same per-worker-tally argument
// the join drivers use for count/checksum (DESIGN.md §7.5).
//
// Columns: the relations are pointer-linked 128-byte objects, not schema'd
// tables. TPC-H-flavoured predicates and groupings run over deterministic
// pseudo-columns derived from R's id (qty, price, discount, date, flag)
// and the dereferenced S key (s_priority) via the same SplitMix64 the
// generator uses — no schema change, bit-stable everywhere.
#ifndef MMJOIN_EXEC_OP_OPERATORS_H_
#define MMJOIN_EXEC_OP_OPERATORS_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exec/backend.h"
#include "exec/op/stages.h"
#include "rel/relation.h"

namespace mmjoin::exec::op {

/// Rows per batch flowing between operators. 3×8 KiB of column data —
/// resident in L2 while a batch traverses the whole chain.
inline constexpr uint32_t kBatchRows = 1024;

/// A fixed-capacity column batch. `s_key` is valid only downstream of a
/// ProbeSOp (zero otherwise — the derived S columns of a no-join plan are
/// never referenced, enforced by PlanSpec validation).
struct Batch {
  uint32_t n = 0;
  uint64_t r_id[kBatchRows];
  uint64_t sptr[kBatchRows];
  uint64_t s_key[kBatchRows];
};

/// Pseudo-columns of the pointer-linked relations (see file comment).
/// kSKey/kSPriority require a ProbeSOp upstream.
enum class Column : uint8_t {
  kRId,        ///< R object id (raw)
  kQty,        ///< 1..50        (lineitem quantity flavour)
  kPrice,      ///< 10000..99999 (extended price flavour)
  kDiscount,   ///< 0..10        (discount percent flavour)
  kDate,       ///< 0..2465      (ship-date day number flavour)
  kFlag,       ///< 0..2         (return-flag flavour, 3 groups)
  kSKey,       ///< dereferenced S verification key (raw)
  kSPriority,  ///< s_key % 5    (order-priority flavour, 5 groups)
};

/// True for columns computed from the dereferenced S object.
inline bool ColumnNeedsS(Column c) {
  return c == Column::kSKey || c == Column::kSPriority;
}

inline const char* ColumnName(Column c) {
  switch (c) {
    case Column::kRId: return "r_id";
    case Column::kQty: return "qty";
    case Column::kPrice: return "price";
    case Column::kDiscount: return "discount";
    case Column::kDate: return "date";
    case Column::kFlag: return "flag";
    case Column::kSKey: return "s_key";
    case Column::kSPriority: return "s_priority";
  }
  return "?";
}

/// Derives one pseudo-column value. Salts keep the columns independent:
/// deterministic functions of the row identity, uncorrelated across
/// columns, identical on every backend.
inline uint64_t ColumnValue(Column c, uint64_t r_id, uint64_t s_key) {
  switch (c) {
    case Column::kRId: return r_id;
    case Column::kQty: return rel::Mix64(r_id ^ 0x71c8a53f00000001ULL) % 50 + 1;
    case Column::kPrice:
      return rel::Mix64(r_id ^ 0x71c8a53f00000002ULL) % 90000 + 10000;
    case Column::kDiscount: return rel::Mix64(r_id ^ 0x71c8a53f00000003ULL) % 11;
    case Column::kDate: return rel::Mix64(r_id ^ 0x71c8a53f00000004ULL) % 2466;
    case Column::kFlag: return rel::Mix64(r_id ^ 0x71c8a53f00000005ULL) % 3;
    case Column::kSKey: return s_key;
    case Column::kSPriority: return s_key % 5;
  }
  return 0;
}

/// One conjunct of a filter: keep rows with lo <= col < hi (half-open).
struct Predicate {
  Column col = Column::kRId;
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};
};

/// Aggregate functions over a group. kSumProduct is the TPC-H Q6 revenue
/// shape: SUM(col * col2).
enum class AggOp : uint8_t { kCount, kSum, kMin, kMax, kSumProduct };

struct AggSpec {
  AggOp op = AggOp::kCount;
  Column col = Column::kRId;   ///< ignored for kCount
  Column col2 = Column::kRId;  ///< kSumProduct only
};

inline const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kCount: return "count";
    case AggOp::kSum: return "sum";
    case AggOp::kMin: return "min";
    case AggOp::kMax: return "max";
    case AggOp::kSumProduct: return "sum_product";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Operator chain
// ---------------------------------------------------------------------------

/// One stage of a push-based plan. Open sizes per-slot state; Push runs on
/// worker threads (slot = ex.WorkerSlot()) and forwards the — possibly
/// compacted or enriched — batch to `next`; Close runs serially after the
/// pass barrier and merges slots. Operators mutate batches IN PLACE: a
/// batch is owned by exactly one worker for its whole trip down the chain.
template <Backend B>
class Operator {
 public:
  virtual ~Operator() = default;
  virtual void Open(B& /*ex*/) {}
  virtual void Push(B& ex, uint32_t slot, uint32_t partition, Batch& b) = 0;
  virtual void Close(B& /*ex*/) {}

  void set_next(Operator* n) { next_ = n; }

 protected:
  Operator* next_ = nullptr;
};

/// Filter/Select: compacts each batch in place to the rows satisfying ALL
/// predicates, then forwards non-empty batches. Charges one map_ms per
/// input row on the simulator (attribute mapping, the same
/// convention the partition scan uses).
template <Backend B>
class FilterOp final : public Operator<B> {
 public:
  explicit FilterOp(std::vector<Predicate> preds) : preds_(std::move(preds)) {}

  void Open(B& ex) override {
    rows_in_.assign(ex.WorkerSlots(), 0);
    rows_out_.assign(ex.WorkerSlots(), 0);
  }

  void Push(B& ex, uint32_t slot, uint32_t partition, Batch& b) override {
    uint32_t w = 0;
    for (uint32_t k = 0; k < b.n; ++k) {
      bool keep = true;
      for (const Predicate& p : preds_) {
        const uint64_t v = ColumnValue(p.col, b.r_id[k], b.s_key[k]);
        if (v < p.lo || v >= p.hi) {
          keep = false;
          break;
        }
      }
      if (keep) {
        b.r_id[w] = b.r_id[k];
        b.sptr[w] = b.sptr[k];
        b.s_key[w] = b.s_key[k];
        ++w;
      }
    }
    ex.ChargeCpu(partition, static_cast<double>(b.n) * ex.mc().map_ms);
    rows_in_[slot] += b.n;
    rows_out_[slot] += w;
    b.n = w;
    if (w != 0 && this->next_ != nullptr) {
      this->next_->Push(ex, slot, partition, b);
    }
  }

  uint64_t rows_in() const { return Sum(rows_in_); }
  uint64_t rows_out() const { return Sum(rows_out_); }

 private:
  static uint64_t Sum(const std::vector<uint64_t>& v) {
    uint64_t t = 0;
    for (uint64_t x : v) t += x;
    return t;
  }
  std::vector<Predicate> preds_;
  std::vector<uint64_t> rows_in_, rows_out_;
};

/// Probe: the pointer join. Dereferences each row's packed S-pointer and
/// fills the batch's s_key column. Threads share one address space (real)
/// or one paging model (simulated), so the dereference is a charged Read
/// of the target S partition; the batched path overlays a software
/// prefetch pipeline across the batch exactly like the join drivers'
/// probe kernels.
template <Backend B>
class ProbeSOp final : public Operator<B> {
 public:
  void Open(B& ex) override { rows_.assign(ex.WorkerSlots(), 0); }

  void Push(B& ex, uint32_t slot, uint32_t partition, Batch& b) override {
    if constexpr (B::kBatchedProbe) {
      const void* src[kBatchRows];
      for (uint32_t k = 0; k < b.n; ++k) {
        const rel::SPtr sp = rel::SPtr::Unpack(b.sptr[k]);
        src[k] = ex.Read(partition, ex.s_seg(sp.partition),
                         rel::Workload::SOffset(sp.index), sizeof(rel::SObject));
        __builtin_prefetch(src[k]);
      }
      for (uint32_t k = 0; k < b.n; ++k) {
        b.s_key[k] = static_cast<const rel::SObject*>(src[k])->key;
      }
    } else {
      for (uint32_t k = 0; k < b.n; ++k) {
        const rel::SPtr sp = rel::SPtr::Unpack(b.sptr[k]);
        const void* src =
            ex.Read(partition, ex.s_seg(sp.partition),
                    rel::Workload::SOffset(sp.index), sizeof(rel::SObject));
        rel::SObject s;
        std::memcpy(&s, src, sizeof(s));
        b.s_key[k] = s.key;
      }
    }
    rows_[slot] += b.n;
    if (this->next_ != nullptr) this->next_->Push(ex, slot, partition, b);
  }

  uint64_t rows() const {
    uint64_t t = 0;
    for (uint64_t x : rows_) t += x;
    return t;
  }

 private:
  std::vector<uint64_t> rows_;
};

/// One output group after the merge: key + one accumulator per AggSpec.
struct GroupRow {
  uint64_t key = 0;
  std::vector<uint64_t> aggs;
};

/// HashAggregate/GroupBy sink: per-slot open-addressing-free std::map from
/// group key to accumulators (group cardinality is tiny — TPC-H flavours
/// have 1..5 groups), merged commutatively and key-sorted at Close. With
/// no group column every row lands in the single key-0 group (global
/// aggregate); with zero input rows the output has zero groups.
template <Backend B>
class GroupByOp final : public Operator<B> {
 public:
  GroupByOp(std::optional<Column> group_by, std::vector<AggSpec> aggs)
      : group_by_(group_by), aggs_(std::move(aggs)) {}

  void Open(B& ex) override {
    tables_.assign(ex.WorkerSlots(), {});
    rows_.assign(ex.WorkerSlots(), 0);
  }

  void Push(B& ex, uint32_t slot, uint32_t partition, Batch& b) override {
    auto& table = tables_[slot];
    for (uint32_t k = 0; k < b.n; ++k) {
      const uint64_t key =
          group_by_ ? ColumnValue(*group_by_, b.r_id[k], b.s_key[k]) : 0;
      auto [it, fresh] = table.try_emplace(key);
      if (fresh) InitAccs(&it->second);
      Accumulate(&it->second, b.r_id[k], b.s_key[k]);
    }
    // one hash probe per row, the drivers' in-memory table convention
    ex.ChargeCpu(partition, static_cast<double>(b.n) * ex.mc().hash_ms);
    rows_[slot] += b.n;
  }

  void Close(B& /*ex*/) override {
    std::map<uint64_t, std::vector<uint64_t>> merged;
    for (const auto& table : tables_) {
      for (const auto& [key, accs] : table) {
        auto [it, fresh] = merged.try_emplace(key);
        if (fresh) InitAccs(&it->second);
        MergeAccs(&it->second, accs);
      }
    }
    groups_.clear();
    for (auto& [key, accs] : merged) {
      groups_.push_back(GroupRow{key, std::move(accs)});
    }
  }

  /// Key-sorted groups; valid after Close.
  const std::vector<GroupRow>& groups() const { return groups_; }
  uint64_t rows() const {
    uint64_t t = 0;
    for (uint64_t x : rows_) t += x;
    return t;
  }

 private:
  void InitAccs(std::vector<uint64_t>* accs) const {
    accs->clear();
    for (const AggSpec& a : aggs_) {
      accs->push_back(a.op == AggOp::kMin ? ~uint64_t{0} : 0);
    }
  }
  void Accumulate(std::vector<uint64_t>* accs, uint64_t r_id,
                  uint64_t s_key) const {
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const AggSpec& spec = aggs_[a];
      uint64_t& acc = (*accs)[a];
      switch (spec.op) {
        case AggOp::kCount: acc += 1; break;
        case AggOp::kSum: acc += ColumnValue(spec.col, r_id, s_key); break;
        case AggOp::kMin:
          acc = std::min(acc, ColumnValue(spec.col, r_id, s_key));
          break;
        case AggOp::kMax:
          acc = std::max(acc, ColumnValue(spec.col, r_id, s_key));
          break;
        case AggOp::kSumProduct:
          acc += ColumnValue(spec.col, r_id, s_key) *
                 ColumnValue(spec.col2, r_id, s_key);
          break;
      }
    }
  }
  void MergeAccs(std::vector<uint64_t>* into,
                 const std::vector<uint64_t>& from) const {
    for (size_t a = 0; a < aggs_.size(); ++a) {
      uint64_t& acc = (*into)[a];
      switch (aggs_[a].op) {
        case AggOp::kCount:
        case AggOp::kSum:
        case AggOp::kSumProduct: acc += from[a]; break;
        case AggOp::kMin: acc = std::min(acc, from[a]); break;
        case AggOp::kMax: acc = std::max(acc, from[a]); break;
      }
    }
  }

  std::optional<Column> group_by_;
  std::vector<AggSpec> aggs_;
  std::vector<std::map<uint64_t, std::vector<uint64_t>>> tables_;
  std::vector<uint64_t> rows_;
  std::vector<GroupRow> groups_;
};

/// Collect sink for plans with no aggregation: order-independent row count
/// and checksum (the join drivers' OutputDigest convention — a plan of
/// just Scan→ProbeS→Collect reproduces the workload's expected join count
/// and checksum exactly, which the identity tests exploit).
template <Backend B>
class CollectOp final : public Operator<B> {
 public:
  void Open(B& ex) override {
    count_.assign(ex.WorkerSlots(), 0);
    digest_.assign(ex.WorkerSlots(), 0);
  }

  void Push(B& /*ex*/, uint32_t slot, uint32_t /*partition*/,
            Batch& b) override {
    for (uint32_t k = 0; k < b.n; ++k) {
      digest_[slot] += rel::OutputDigest(b.r_id[k], b.s_key[k]);
    }
    count_[slot] += b.n;
  }

  uint64_t count() const {
    uint64_t t = 0;
    for (uint64_t x : count_) t += x;
    return t;
  }
  uint64_t checksum() const {
    uint64_t t = 0;
    for (uint64_t x : digest_) t += x;
    return t;
  }

 private:
  std::vector<uint64_t> count_, digest_;
};

}  // namespace mmjoin::exec::op

#endif  // MMJOIN_EXEC_OP_OPERATORS_H_
