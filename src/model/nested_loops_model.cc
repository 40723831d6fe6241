#include <algorithm>
#include <cmath>

#include "model/join_model.h"
#include "model/ylru.h"

namespace mmjoin::model {

DerivedSizes ComputeSizes(const ModelInputs& in, bool synchronized) {
  DerivedSizes z;
  z.r_size = static_cast<double>(sizeof(rel::RObject));
  z.s_size = static_cast<double>(sizeof(rel::SObject));
  z.sptr_size = 8;
  z.d = static_cast<double>(in.relation.num_partitions);
  const double r_total = static_cast<double>(in.relation.r_objects);
  const double s_total = static_cast<double>(in.relation.s_objects);
  const double b = static_cast<double>(in.machine.page_size);

  z.ri = r_total / z.d;
  if (synchronized) {
    // 6.3: |R_{i,i}| = |R_i|/D * skew and |RP_i| = |R_i|*skew - |R_{i,i}|.
    z.rii = z.ri / z.d * in.skew;
    z.rpi = z.ri * in.skew - z.rii;
  } else {
    // 5.3: skew inflates R_{i,i} only; the unsynchronized phases absorb
    // RP_{i,j} skew.
    z.rii = z.ri / z.d * in.skew;
    z.rpi = z.ri - z.rii;
  }
  z.rsi = r_total / z.d;

  z.p_ri = std::ceil(z.ri * z.r_size / b);
  z.p_si = std::ceil(s_total / z.d * z.s_size / b);
  z.p_rpi = std::ceil(z.rpi * z.r_size / b);
  z.p_rsi = std::ceil(z.rsi * z.r_size / b);
  return z;
}

double GBufferSwitchMs(const ModelInputs& in, double h) {
  if (h <= 0) return 0;
  const double entry = static_cast<double>(sizeof(rel::RObject)) + 8.0 +
                       static_cast<double>(sizeof(rel::SObject));
  const double g = static_cast<double>(
      in.params.g_bytes ? in.params.g_bytes : in.machine.page_size);
  const double per_batch = std::max(1.0, std::floor(g / entry));
  return 2.0 * in.machine.cs_ms * std::ceil(h / per_batch);
}

CostBreakdown PredictNestedLoops(const ModelInputs& in) {
  CostBreakdown c;
  const auto& mc = in.machine;
  const DerivedSizes z = ComputeSizes(in, /*synchronized=*/false);
  const double b_sproc = std::max(
      1.0, std::floor(static_cast<double>(in.params.m_sproc_bytes) /
                      mc.page_size));

  // ---- Pass 0: R_i read, RP_i written, S_i read randomly. ----
  const double band0 = z.p_ri + z.p_si + z.p_rpi;
  c.io_ms += z.p_ri * in.dtt.read.Ms(band0);
  c.io_ms += z.p_rpi * in.dtt.write.Ms(band0);
  c.io_ms += Ylru(z.rsi, z.p_si, z.rsi, b_sproc, z.rii) *
             in.dtt.read.Ms(band0);

  // ---- Pass 1: RP_i read, S_i read randomly. ----
  const double band1 = z.p_si + z.p_rpi;
  c.io_ms += z.p_rpi * in.dtt.read.Ms(band1);
  c.io_ms += Ylru(z.rsi, z.p_si, z.rsi, b_sproc, z.rpi) *
             in.dtt.read.Ms(band1);

  // ---- Data movement, mapping and context switches. ----
  const double rss = z.r_size + z.sptr_size + z.s_size;
  c.cpu_ms += z.rpi * z.r_size * mc.mt_pp_ms;         // R objects into RP_i
  c.cpu_ms += z.rii * rss * mc.mt_ps_ms;              // pass-0 joins
  c.cpu_ms += z.rpi * rss * mc.mt_ps_ms;              // pass-1 joins
  c.cpu_ms += z.ri * mc.map_ms;                       // partition mapping
  c.cs_ms += GBufferSwitchMs(in, z.rii) + GBufferSwitchMs(in, z.rpi);

  // ---- Setup: openMap(R_i) + openMap(S_i) + newMap(RP_i), serial in D. ---
  c.setup_ms += z.d * (mc.OpenMapMs(static_cast<uint64_t>(z.p_ri)) +
                       mc.OpenMapMs(static_cast<uint64_t>(z.p_si)) +
                       mc.NewMapMs(static_cast<uint64_t>(z.p_rpi)));
  return c;
}

CostBreakdown Predict(join::Algorithm algorithm, const ModelInputs& in) {
  switch (algorithm) {
    case join::Algorithm::kNestedLoops:
      return PredictNestedLoops(in);
    case join::Algorithm::kSortMerge:
      return PredictSortMerge(in);
    case join::Algorithm::kGrace:
      return PredictGrace(in);
    case join::Algorithm::kHybridHash:
      return PredictHybridHash(in);
    case join::Algorithm::kIndexNestedLoops:
    case join::Algorithm::kMpsm:
      // The paper models only the four original drivers; the index join
      // (EXT-8) and the MPSM driver are extensions with no analytic
      // counterpart.
      return CostBreakdown{};
  }
  return CostBreakdown{};
}

}  // namespace mmjoin::model
