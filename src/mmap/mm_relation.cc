#include "mmap/mm_relation.h"

#include <csignal>
#include <cstdlib>

#include <cstring>
#include <vector>

#include "exec/op/stages.h"
#include "exec/real_backend.h"
#include "util/random.h"

namespace mmjoin::mm {

namespace {

/// Crash-test hook (see the header): kills the process after the N-th
/// successful seal when MMJOIN_PERSIST_CRASH=N is set. The environment is
/// re-read on every seal — seals are rare, and the recovery tests setenv()
/// in a fork()ed child, where a cached first read from the parent would
/// make the hook unreachable. The counter only advances while the hook is
/// armed, so a child armed after inheriting a long-lived parent still
/// crashes exactly N seals in.
void MaybeCrashAfterSeal() {
  static int sealed = 0;
  const char* v = std::getenv("MMJOIN_PERSIST_CRASH");
  if (v == nullptr) return;
  const int crash_after = std::atoi(v);
  if (crash_after <= 0) return;
  if (++sealed >= crash_after) {
    std::raise(SIGKILL);
  }
}

Status SealCounted(Segment* seg, MsyncPolicy policy) {
  MMJOIN_RETURN_NOT_OK(seg->Seal(policy));
  MaybeCrashAfterSeal();
  return Status::OK();
}

}  // namespace

StatusOr<MmWorkload> BuildMmWorkload(SegmentManager* manager,
                                     const std::string& prefix,
                                     const rel::RelationConfig& config) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("need at least one partition");
  }
  if (config.r_objects == 0 || config.s_objects == 0) {
    return Status::InvalidArgument("relations must be non-empty");
  }
  const uint32_t d = config.num_partitions;
  const uint64_t r_per = config.r_objects / d;
  const uint64_t s_per = config.s_objects / d;
  if (r_per == 0 || s_per == 0) {
    return Status::InvalidArgument("fewer objects than partitions");
  }

  MmWorkload w;
  w.config = config;
  w.r_count.assign(d, 0);
  w.s_count.assign(d, 0);
  w.r_base.assign(d, 0);
  w.s_base.assign(d, 0);
  w.counts.assign(d, std::vector<uint64_t>(d, 0));
  for (uint32_t i = 0; i < d; ++i) {
    w.r_count[i] = (i == d - 1) ? config.r_objects - r_per * (d - 1) : r_per;
    w.s_count[i] = (i == d - 1) ? config.s_objects - s_per * (d - 1) : s_per;
  }

  // Create and fill the S partitions first (they define the pointees).
  for (uint32_t i = 0; i < d; ++i) {
    const uint64_t bytes =
        sizeof(SegmentHeader) + 64 + w.s_count[i] * sizeof(rel::SObject);
    MMJOIN_ASSIGN_OR_RETURN(
        Segment seg,
        manager->CreateSegment(prefix + "_s" + std::to_string(i), bytes));
    MMJOIN_ASSIGN_OR_RETURN(uint64_t base,
                            seg.Allocate(w.s_count[i] * sizeof(rel::SObject)));
    seg.set_root(base);
    auto* objs = reinterpret_cast<rel::SObject*>(seg.Resolve(base));
    for (uint64_t k = 0; k < w.s_count[i]; ++k) {
      objs[k].id = static_cast<uint64_t>(i) * s_per + k;
      objs[k].key = rel::SKeyFor(i, k);
      std::memset(objs[k].payload, static_cast<int>(objs[k].key & 0xff),
                  sizeof(objs[k].payload));
    }
    w.s_base[i] = base;
    w.s_segs.push_back(std::move(seg));
  }

  // Fill R with the identical pointer stream as rel::BuildWorkload (same
  // generator, same seed) so both substrates join identically.
  ZipfGenerator gen(config.s_objects, config.zipf_theta, config.seed);
  uint64_t r_id = 0;
  for (uint32_t i = 0; i < d; ++i) {
    const uint64_t bytes =
        sizeof(SegmentHeader) + 64 + w.r_count[i] * sizeof(rel::RObject);
    MMJOIN_ASSIGN_OR_RETURN(
        Segment seg,
        manager->CreateSegment(prefix + "_r" + std::to_string(i), bytes));
    MMJOIN_ASSIGN_OR_RETURN(uint64_t base,
                            seg.Allocate(w.r_count[i] * sizeof(rel::RObject)));
    seg.set_root(base);
    auto* objs = reinterpret_cast<rel::RObject*>(seg.Resolve(base));
    for (uint64_t k = 0; k < w.r_count[i]; ++k, ++r_id) {
      const uint64_t global_s = gen.Next();
      uint32_t part = static_cast<uint32_t>(global_s / s_per);
      if (part >= d) part = d - 1;
      const uint64_t local = global_s - static_cast<uint64_t>(part) * s_per;
      objs[k].id = r_id;
      objs[k].sptr = rel::SPtr{part, local}.Pack();
      std::memset(objs[k].payload, static_cast<int>(r_id & 0xff),
                  sizeof(objs[k].payload));
      ++w.counts[i][part];
      w.expected_checksum +=
          rel::OutputDigest(r_id, rel::SKeyFor(part, local));
      ++w.expected_output_count;
    }
    w.r_base[i] = base;
    w.r_segs.push_back(std::move(seg));
  }
  return w;
}

Status DeleteMmWorkload(SegmentManager* manager, const std::string& prefix,
                        uint32_t num_partitions) {
  Status first_error;
  for (uint32_t i = 0; i < num_partitions; ++i) {
    for (const char* kind : {"_r", "_s"}) {
      const std::string name = prefix + kind + std::to_string(i);
      if (!manager->Exists(name)) continue;
      const Status st = manager->DeleteSegment(name);
      if (!st.ok() && first_error.ok()) first_error = st;
    }
  }
  // Durable-store extras (manifest, join-key index) when present.
  for (const char* extra : {"_meta", "_ix"}) {
    const std::string name = prefix + extra;
    if (!manager->Exists(name)) continue;
    const Status st = manager->DeleteSegment(name);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

Status PersistMmWorkload(SegmentManager* manager, const std::string& prefix,
                         MmWorkload* workload, MsyncPolicy policy,
                         exec::SharedWorkerPool* pool) {
  if (workload == nullptr || workload->r_segs.empty()) {
    return Status::InvalidArgument("cannot persist an empty workload");
  }
  const uint32_t d = workload->config.num_partitions;

  // Join-key index: index-NL's build stage, whose sorted RS_i are copied
  // into `_ix` after the root table, in partition order.
  const join::JoinParams params;
  exec::RealBackendOptions options;
  options.pool = pool;
  exec::RealBackend backend(*workload, params, options);
  MMJOIN_ASSIGN_OR_RETURN(exec::op::PartitionIndexes<exec::RealBackend> ix,
                          exec::op::BuildIndex(backend, params));
  const std::string ix_name = prefix + "_ix";
  if (manager->Exists(ix_name)) {
    MMJOIN_RETURN_NOT_OK(manager->DeleteSegment(ix_name));
  }
  const uint64_t table_bytes =
      sizeof(StoreIndexRoot) + uint64_t{d} * sizeof(StoreIndexPartition);
  uint64_t data_bytes = 0;
  for (const uint64_t entries : ix.entries) {
    data_bytes += entries * sizeof(exec::SRef);
  }
  MMJOIN_ASSIGN_OR_RETURN(
      Segment ix_seg,
      manager->CreateSegment(ix_name, sizeof(SegmentHeader) + 64 +
                                          table_bytes + data_bytes));
  MMJOIN_ASSIGN_OR_RETURN(uint64_t root_off, ix_seg.Allocate(table_bytes));
  MMJOIN_ASSIGN_OR_RETURN(uint64_t data_off, ix_seg.Allocate(data_bytes));
  auto* root = new (ix_seg.Resolve(root_off)) StoreIndexRoot();
  root->num_partitions = d;
  auto* parts = reinterpret_cast<StoreIndexPartition*>(root + 1);
  for (uint32_t i = 0; i < d; ++i) {
    const uint64_t bytes = ix.entries[i] * sizeof(exec::SRef);
    parts[i] = StoreIndexPartition{ix.entries[i], data_off};
    std::memcpy(ix_seg.Resolve(data_off), ix.segs[i]->base, bytes);
    data_off += bytes;
    MMJOIN_RETURN_NOT_OK(backend.DeleteSegment(ix.segs[i]));
  }
  ix_seg.set_root(root_off);

  // Manifest segment: fixed fields plus the per-partition count arrays.
  const std::string meta_name = prefix + "_meta";
  if (manager->Exists(meta_name)) {
    MMJOIN_RETURN_NOT_OK(manager->DeleteSegment(meta_name));
  }
  const uint64_t meta_bytes = sizeof(SegmentHeader) + 64 +
                              sizeof(StoreManifest) +
                              (2 * d + uint64_t{d} * d + 8) * sizeof(uint64_t);
  MMJOIN_ASSIGN_OR_RETURN(Segment meta_seg,
                          manager->CreateSegment(meta_name, meta_bytes));
  MMJOIN_ASSIGN_OR_RETURN(uint64_t man_off,
                          meta_seg.Allocate(sizeof(StoreManifest)));
  MMJOIN_ASSIGN_OR_RETURN(uint64_t r_count_off,
                          meta_seg.Allocate(d * sizeof(uint64_t)));
  MMJOIN_ASSIGN_OR_RETURN(uint64_t s_count_off,
                          meta_seg.Allocate(d * sizeof(uint64_t)));
  MMJOIN_ASSIGN_OR_RETURN(
      uint64_t counts_off,
      meta_seg.Allocate(uint64_t{d} * d * sizeof(uint64_t)));
  auto* man = new (meta_seg.Resolve(man_off)) StoreManifest();
  man->r_objects = workload->config.r_objects;
  man->s_objects = workload->config.s_objects;
  man->num_partitions = d;
  uint64_t theta_bits = 0;
  static_assert(sizeof(theta_bits) == sizeof(workload->config.zipf_theta));
  std::memcpy(&theta_bits, &workload->config.zipf_theta, sizeof(theta_bits));
  man->zipf_theta_bits = theta_bits;
  man->seed = workload->config.seed;
  man->expected_output_count = workload->expected_output_count;
  man->expected_checksum = workload->expected_checksum;
  man->r_count_off = r_count_off;
  man->s_count_off = s_count_off;
  man->counts_off = counts_off;
  auto* r_counts = static_cast<uint64_t*>(meta_seg.Resolve(r_count_off));
  auto* s_counts = static_cast<uint64_t*>(meta_seg.Resolve(s_count_off));
  auto* counts = static_cast<uint64_t*>(meta_seg.Resolve(counts_off));
  for (uint32_t i = 0; i < d; ++i) {
    r_counts[i] = workload->r_count[i];
    s_counts[i] = workload->s_count[i];
    for (uint32_t j = 0; j < d; ++j) {
      counts[uint64_t{i} * d + j] = workload->counts[i][j];
    }
  }
  meta_seg.set_root(man_off);

  // Seal order: data and index first, the manifest LAST — a crash at any
  // point before the final seal leaves `<prefix>_meta` unsealed, so the
  // whole store is refused at load time instead of partially trusted.
  for (uint32_t i = 0; i < d; ++i) {
    MMJOIN_RETURN_NOT_OK(SealCounted(&workload->s_segs[i], policy));
  }
  for (uint32_t i = 0; i < d; ++i) {
    MMJOIN_RETURN_NOT_OK(SealCounted(&workload->r_segs[i], policy));
  }
  MMJOIN_RETURN_NOT_OK(SealCounted(&ix_seg, policy));
  MMJOIN_RETURN_NOT_OK(SealCounted(&meta_seg, policy));
  return Status::OK();
}

StatusOr<MmWorkload> OpenMmWorkload(SegmentManager* manager,
                                    const std::string& prefix) {
  MMJOIN_ASSIGN_OR_RETURN(Segment meta_seg,
                          manager->OpenSealedSegment(prefix + "_meta"));
  // A sealed manifest can still be a foreign or hand-made one: every
  // offset it records must stay inside the allocated part of `_meta`.
  const uint64_t meta_bump = meta_seg.header()->bump;
  const auto in_meta = [&](uint64_t off, uint64_t bytes) {
    return off >= sizeof(SegmentHeader) && off <= meta_bump &&
           bytes <= meta_bump - off;
  };
  if (meta_seg.root() == 0) {
    return Status::IOError("store manifest missing root: " + prefix);
  }
  if (!in_meta(meta_seg.root(), sizeof(StoreManifest))) {
    return Status::IOError("store manifest root out of range: " + prefix);
  }
  const auto* man =
      static_cast<const StoreManifest*>(meta_seg.Resolve(meta_seg.root()));
  if (man->magic != StoreManifest::kMagic) {
    return Status::IOError("bad store manifest magic: " + prefix);
  }
  const uint32_t d = man->num_partitions;
  if (d == 0) return Status::IOError("store manifest has no partitions");
  const uint64_t row_bytes = uint64_t{d} * sizeof(uint64_t);
  if (!in_meta(man->r_count_off, row_bytes) ||
      !in_meta(man->s_count_off, row_bytes) ||
      !in_meta(man->counts_off, uint64_t{d} * row_bytes)) {
    return Status::IOError("store manifest count arrays out of range: " +
                           prefix);
  }

  MmWorkload w;
  w.config.r_objects = man->r_objects;
  w.config.s_objects = man->s_objects;
  w.config.num_partitions = d;
  double theta = 0;
  std::memcpy(&theta, &man->zipf_theta_bits, sizeof(theta));
  w.config.zipf_theta = theta;
  w.config.seed = man->seed;
  w.expected_output_count = man->expected_output_count;
  w.expected_checksum = man->expected_checksum;
  w.r_count.assign(d, 0);
  w.s_count.assign(d, 0);
  w.r_base.assign(d, 0);
  w.s_base.assign(d, 0);
  w.counts.assign(d, std::vector<uint64_t>(d, 0));
  const auto* r_counts =
      static_cast<const uint64_t*>(meta_seg.Resolve(man->r_count_off));
  const auto* s_counts =
      static_cast<const uint64_t*>(meta_seg.Resolve(man->s_count_off));
  const auto* counts =
      static_cast<const uint64_t*>(meta_seg.Resolve(man->counts_off));
  for (uint32_t i = 0; i < d; ++i) {
    w.r_count[i] = r_counts[i];
    w.s_count[i] = s_counts[i];
    for (uint32_t j = 0; j < d; ++j) {
      w.counts[i][j] = counts[uint64_t{i} * d + j];
    }
  }

  // Reattach every partition through the sealed path in one batch — S
  // first, then R, so the first failure is the one a serial open would
  // meet. The object array base is the segment root the build recorded.
  std::vector<std::string> names;
  names.reserve(2 * d);
  for (const char* kind : {"_s", "_r"}) {
    for (uint32_t i = 0; i < d; ++i) {
      names.push_back(prefix + kind + std::to_string(i));
    }
  }
  MMJOIN_ASSIGN_OR_RETURN(std::vector<Segment> segs,
                          manager->OpenSealedSegments(names));
  // Each segment is sealed, but possibly another store's: its object array
  // must hold the manifest's count, and the counts must add up, before a
  // driver or probe indexes into it.
  uint64_t r_total = 0, s_total = 0;
  for (uint32_t k = 0; k < 2 * d; ++k) {
    const uint32_t i = k % d;
    const bool is_s = k < d;
    const uint64_t n = is_s ? w.s_count[i] : w.r_count[i];
    const uint64_t object_bytes =
        is_s ? sizeof(rel::SObject) : sizeof(rel::RObject);
    const uint64_t root = segs[k].root();
    const uint64_t bump = segs[k].header()->bump;
    if (root < sizeof(SegmentHeader) || root > bump ||
        n > (bump - root) / object_bytes) {
      return Status::IOError("store segment does not hold the manifest's " +
                             std::to_string(n) + " objects: " +
                             segs[k].path());
    }
    (is_s ? s_total : r_total) += n;
    (is_s ? w.s_base : w.r_base)[i] = root;
  }
  for (uint32_t i = 0; i < d; ++i) {
    uint64_t row = 0;
    for (uint32_t j = 0; j < d; ++j) row += w.counts[i][j];
    if (row != w.r_count[i]) {
      return Status::IOError("store manifest counts disagree with R_" +
                             std::to_string(i) + ": " + prefix);
    }
  }
  if (r_total != w.config.r_objects || s_total != w.config.s_objects) {
    return Status::IOError(
        "store manifest partition counts do not add up: " + prefix);
  }
  for (uint32_t k = 0; k < 2 * d; ++k) {
    (k < d ? w.s_segs : w.r_segs).push_back(std::move(segs[k]));
  }
  return w;
}

StatusOr<MmWorkloadIndex> OpenMmWorkloadIndex(SegmentManager* manager,
                                              const std::string& prefix,
                                              const MmWorkload& workload) {
  MmWorkloadIndex index;
  MMJOIN_ASSIGN_OR_RETURN(index.segment,
                          manager->OpenSealedSegment(prefix + "_ix"));
  // Sealed is not enough: the index may be another format's or another
  // store's, so every record is checked before a probe reads through it.
  const Segment& seg = index.segment;
  const uint64_t bump = seg.header()->bump;
  const auto in_ix = [&](uint64_t off, uint64_t bytes) {
    return off >= sizeof(SegmentHeader) && off % alignof(uint64_t) == 0 &&
           off <= bump && bytes <= bump - off;
  };
  if (!in_ix(seg.root(), sizeof(StoreIndexRoot))) {
    return Status::IOError("store index root out of range: " + prefix);
  }
  const auto* root =
      static_cast<const StoreIndexRoot*>(seg.Resolve(seg.root()));
  if (root->magic != StoreIndexRoot::kMagic ||
      root->version != StoreIndexRoot::kVersion) {
    return Status::IOError(
        "store index is not in this version's layout (persist the store "
        "again): " + prefix);
  }
  const uint32_t d = workload.config.num_partitions;
  if (root->num_partitions != d ||
      !in_ix(seg.root(), sizeof(StoreIndexRoot) +
                             uint64_t{d} * sizeof(StoreIndexPartition))) {
    return Status::IOError("store index has " +
                           std::to_string(root->num_partitions) +
                           " partitions, the workload " + std::to_string(d) +
                           ": " + prefix);
  }
  const auto* parts = reinterpret_cast<const StoreIndexPartition*>(root + 1);
  for (uint32_t i = 0; i < d; ++i) {
    uint64_t refs = 0;
    for (uint32_t j = 0; j < d; ++j) refs += workload.counts[j][i];
    if (parts[i].entries != refs) {
      return Status::IOError(
          "store index holds " + std::to_string(parts[i].entries) +
          " refs into S_" + std::to_string(i) + ", the counts say " +
          std::to_string(refs) + ": " + prefix);
    }
    if (!in_ix(parts[i].byte_off, refs * sizeof(exec::SRef))) {
      return Status::IOError("store index partition " + std::to_string(i) +
                             " lies outside the segment: " + prefix);
    }
    index.entries.push_back(refs);
    index.bytes.push_back(static_cast<const uint8_t*>(seg.base()) +
                          parts[i].byte_off);
  }
  return index;
}

bool MmWorkloadStoreExists(const SegmentManager& manager,
                           const std::string& prefix) {
  return manager.Exists(prefix + "_meta");
}

}  // namespace mmjoin::mm
