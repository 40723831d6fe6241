// Query plans over the push-based operator layer: a declarative PlanSpec
// (filter conjuncts, optional S probe, optional group-by, aggregate list),
// a backend-generic executor that compiles the spec into an operator chain
// and drives it from a morsel scan of R, built-in TPC-H-flavoured plans
// (q1/q4/q6 — see plan.cc), and a serial reference evaluator used as the
// correctness oracle by tests and the verified flag of real runs.
//
// Execution shape (one pass, no materialized intermediate):
//   Scan R_i morsels -> [FilterOp] -> [ProbeSOp] -> GroupByOp | CollectOp
// The scan declares its morsels independent — a hot partition spreads
// across all workers — which is sound because every downstream operator
// accumulates into per-worker-slot state only (operators.h).
#ifndef MMJOIN_EXEC_OP_PLAN_H_
#define MMJOIN_EXEC_OP_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exec/backend.h"
#include "exec/op/operators.h"
#include "exec/op/stages.h"
#include "rel/relation.h"
#include "util/status.h"

namespace mmjoin::exec::op {

/// A declarative plan: σ(filters) [⋈ S] → Γ(group_by; aggs). With empty
/// `aggs` the sink is a Collect (row count + OutputDigest checksum); with
/// aggs and no group_by, a single global aggregate group (key 0).
struct PlanSpec {
  std::string name;
  std::string description;
  std::vector<Predicate> filters;
  bool probe_s = false;  ///< dereference S-pointers before the sink
  std::optional<Column> group_by;
  std::vector<AggSpec> aggs;
};

/// Built-in plan names, in registry order (the wire vocabulary of the
/// service's run_plan op and mmjoin_cli --plan; each name must appear in
/// docs/PROTOCOL.md — checked by scripts/check_protocol_docs.sh).
inline constexpr const char* kPlanNames[] = {"q1", "q4", "q6"};

/// Looks up a built-in plan; nullptr if unknown.
const PlanSpec* FindPlan(std::string_view name);

/// One line per built-in plan: "name — description".
std::vector<std::string> PlanDescriptions();

/// Rejects specs that read S-derived columns without probe_s, use kCount's
/// ignored fields inconsistently, or aggregate nothing while grouping.
Status ValidatePlan(const PlanSpec& spec);

/// Result of a plan run. Groups are key-sorted; `checksum` is a sequential
/// Mix64 fold over the sorted groups (or the Collect digest when the plan
/// has no aggregates) — bit-identical across backends and worker counts.
struct PlanRunResult {
  uint64_t rows_scanned = 0;   ///< rows pushed by the scan
  uint64_t rows_filtered = 0;  ///< rows surviving the filter (= scanned if none)
  uint64_t rows_joined = 0;    ///< rows through ProbeS (0 if no probe)
  uint64_t output_rows = 0;    ///< rows reaching the sink
  std::vector<GroupRow> groups;
  uint64_t checksum = 0;
  double elapsed_ms = 0;  ///< wall-clock (real) or virtual max clock (sim)
  uint32_t threads_used = 0;
};

/// Checksum convention shared by the executor, the reference evaluator,
/// and the protocol surface.
inline uint64_t GroupsChecksum(const std::vector<GroupRow>& groups) {
  uint64_t checksum = 0;
  for (const GroupRow& g : groups) {
    uint64_t h = rel::Mix64(g.key);
    for (uint64_t a : g.aggs) h = rel::Mix64(h ^ a);
    checksum = rel::Mix64(checksum ^ h);
  }
  return checksum;
}

/// Runs `spec` on a prepared backend (same precondition as the join
/// drivers: relations mapped, D partitions). One morsel pass over R.
template <Backend B>
StatusOr<PlanRunResult> RunPlan(B& ex, const PlanSpec& spec) {
  if (Status s = ValidatePlan(spec); !s.ok()) return s;
  const uint32_t d = ex.D();

  // Compile the spec into a chain. Ownership stays here; operators hold
  // raw `next` pointers.
  FilterOp<B>* filter = nullptr;
  ProbeSOp<B>* probe = nullptr;
  GroupByOp<B>* group = nullptr;
  CollectOp<B>* collect = nullptr;
  std::vector<std::unique_ptr<Operator<B>>> ops;
  if (!spec.filters.empty()) {
    ops.push_back(std::make_unique<FilterOp<B>>(spec.filters));
    filter = static_cast<FilterOp<B>*>(ops.back().get());
  }
  if (spec.probe_s) {
    ops.push_back(std::make_unique<ProbeSOp<B>>());
    probe = static_cast<ProbeSOp<B>*>(ops.back().get());
  }
  if (!spec.aggs.empty()) {
    ops.push_back(std::make_unique<GroupByOp<B>>(spec.group_by, spec.aggs));
    group = static_cast<GroupByOp<B>*>(ops.back().get());
  } else {
    ops.push_back(std::make_unique<CollectOp<B>>());
    collect = static_cast<CollectOp<B>*>(ops.back().get());
  }
  for (size_t k = 0; k + 1 < ops.size(); ++k) ops[k]->set_next(ops[k + 1].get());
  Operator<B>* root = ops.front().get();

  double start_ms = 0;
  for (uint32_t i = 0; i < d; ++i) start_ms = std::max(start_ms, ex.clock_ms(i));

  // Setup: openMap(P_Ri) (+ openMap(P_Si) when the plan probes),
  // serialized over D — the drivers' convention. Then declare the scan
  // sequential over R and the probe random over S (pointer order is
  // arbitrary).
  const sim::MachineConfig& mc = ex.mc();
  for (uint32_t i = 0; i < d; ++i) {
    double per_proc = mc.OpenMapMs(ex.SegPages(ex.r_seg(i)));
    if (spec.probe_s) per_proc += mc.OpenMapMs(ex.SegPages(ex.s_seg(i)));
    ex.ChargeSetupAll(per_proc / d);  // ChargeSetupAll re-multiplies by D
  }
  for (uint32_t i = 0; i < d; ++i) {
    ex.AdviseSegment(i, ex.r_seg(i), AccessIntent::kSequential);
    if (spec.probe_s) {
      ex.AdviseSegment(i, ex.s_seg(i), AccessIntent::kRandom);
    }
  }
  ex.MarkPass("setup");

  for (auto& o : ops) o->Open(ex);

  const std::vector<uint64_t> counts = RCounts(ex);
  std::vector<uint64_t> scanned(ex.WorkerSlots(), 0);
  ex.ForEachPartitionTuples(
      counts,
      [&](uint32_t i, uint64_t begin, uint64_t end) {
        const uint32_t slot = ex.WorkerSlot();
        const typename B::Seg r_seg = ex.r_seg(i);
        Batch b;
        for (uint64_t k = begin; k < end;) {
          const uint32_t take =
              static_cast<uint32_t>(std::min<uint64_t>(kBatchRows, end - k));
          for (uint32_t t = 0; t < take; ++t) {
            const auto& obj =
                LoadR(ex, i, r_seg, rel::Workload::ROffset(k + t));
            b.r_id[t] = obj.id;
            b.sptr[t] = obj.sptr;
            b.s_key[t] = 0;
          }
          b.n = take;
          scanned[slot] += take;
          root->Push(ex, slot, i, b);
          k += take;
        }
      },
      /*independent=*/true);
  ex.SyncClocks();
  ex.MarkPass("pipeline");

  for (auto& o : ops) o->Close(ex);

  PlanRunResult out;
  for (uint64_t x : scanned) out.rows_scanned += x;
  out.rows_filtered = filter != nullptr ? filter->rows_out() : out.rows_scanned;
  out.rows_joined = probe != nullptr ? probe->rows() : 0;
  if (group != nullptr) {
    out.output_rows = group->rows();
    out.groups = group->groups();
    out.checksum = GroupsChecksum(out.groups);
  } else {
    out.output_rows = collect->count();
    out.checksum = collect->checksum();
  }
  double end_ms = 0;
  for (uint32_t i = 0; i < d; ++i) end_ms = std::max(end_ms, ex.clock_ms(i));
  out.elapsed_ms = end_ms - start_ms;
  out.threads_used = ex.WorkerSlots();
  return out;
}

/// Raw views of the relations for the serial reference evaluator: one
/// pointer + count per partition, any storage.
struct RelationView {
  std::vector<const rel::RObject*> r;
  std::vector<uint64_t> r_count;
  std::vector<const rel::SObject*> s;
  std::vector<uint64_t> s_count;
};

/// Evaluates `spec` serially over raw arrays — the oracle the parallel
/// executor is checked against. elapsed_ms/threads_used are zero.
StatusOr<PlanRunResult> ReferencePlan(const RelationView& view,
                                      const PlanSpec& spec);

/// True when two results agree on every row count, every group (key and
/// accumulators), and the checksum — the "verified" predicate of plan runs.
inline bool PlanResultsMatch(const PlanRunResult& a, const PlanRunResult& b) {
  if (a.rows_scanned != b.rows_scanned || a.rows_filtered != b.rows_filtered ||
      a.rows_joined != b.rows_joined || a.output_rows != b.output_rows ||
      a.checksum != b.checksum || a.groups.size() != b.groups.size()) {
    return false;
  }
  for (size_t g = 0; g < a.groups.size(); ++g) {
    if (a.groups[g].key != b.groups[g].key ||
        a.groups[g].aggs != b.groups[g].aggs) {
      return false;
    }
  }
  return true;
}

/// Runs `spec` on the costed simulator (one JoinExecution over the
/// workload) and oracle-checks it against ReferencePlan over the same
/// segments; `*verified` reports the match. elapsed_ms is virtual time.
StatusOr<PlanRunResult> RunPlanSim(sim::SimEnv* env,
                                   const rel::Workload& workload,
                                   const join::JoinParams& params,
                                   const PlanSpec& spec, bool* verified);

}  // namespace mmjoin::exec::op

#endif  // MMJOIN_EXEC_OP_PLAN_H_
