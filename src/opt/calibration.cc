#include "opt/calibration.h"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "exec/numa.h"
#include "obs/json.h"

namespace mmjoin::opt {
namespace {

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix-style generator: deterministic probe access patterns without
/// dragging in <random>.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A 128-byte probe object, the drivers' tuple shape.
struct alignas(128) ProbeObj {
  uint64_t key = 0;
  uint64_t pad[15] = {};
};

template <typename Fn>
double MinOverReps(uint32_t reps, Fn&& fn) {
  double best = 0;
  for (uint32_t r = 0; r < std::max<uint32_t>(1, reps); ++r) {
    const double t = fn();
    if (r == 0 || t < best) best = t;
  }
  return best;
}

double MeasureSeqNsPerByte(uint32_t reps) {
  const size_t n = (16ull << 20) / sizeof(uint64_t);
  std::vector<uint64_t> buf(n, 1);
  volatile uint64_t sink = 0;
  return MinOverReps(reps, [&] {
    const double t0 = NowNs();
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i) sum += buf[i];
    sink = sink + sum;
    return (NowNs() - t0) / (n * sizeof(uint64_t));
  });
}

double MeasureRandNs(uint64_t band_bytes, uint32_t reps) {
  const uint64_t n = std::max<uint64_t>(2, band_bytes / sizeof(ProbeObj));
  std::vector<ProbeObj> buf(n);
  for (uint64_t i = 0; i < n; ++i) buf[i].key = i;
  const uint64_t probes = std::min<uint64_t>(n * 4, 1ull << 17);
  std::vector<uint32_t> idx(probes);
  uint64_t state = 0x243f6a8885a308d3ull + band_bytes;
  for (auto& v : idx) v = static_cast<uint32_t>(NextRand(&state) % n);
  volatile uint64_t sink = 0;
  return MinOverReps(reps, [&] {
    const double t0 = NowNs();
    uint64_t sum = 0;
    for (uint32_t v : idx) sum += buf[v].key;
    sink = sink + sum;
    return (NowNs() - t0) / probes;
  });
}

double MeasureScatterNsPerByte(uint32_t reps) {
  constexpr uint32_t kDests = 64;
  const uint64_t n = 1ull << 15;
  std::vector<ProbeObj> src(n);
  std::vector<std::vector<ProbeObj>> dests(kDests);
  for (auto& d : dests) d.resize(n / kDests + 1);
  uint64_t state = 0x13198a2e03707344ull;
  std::vector<uint8_t> route(n);
  for (auto& r : route) r = static_cast<uint8_t>(NextRand(&state) % kDests);
  return MinOverReps(reps, [&] {
    std::vector<uint32_t> cursor(kDests, 0);
    const double t0 = NowNs();
    for (uint64_t i = 0; i < n; ++i) {
      const uint8_t d = route[i];
      std::memcpy(&dests[d][cursor[d]++ % dests[d].size()], &src[i],
                  sizeof(ProbeObj));
    }
    return (NowNs() - t0) / (n * sizeof(ProbeObj));
  });
}

double MeasureSortNsPerCmp(uint32_t reps) {
  const uint64_t n = 1ull << 14;
  std::vector<ProbeObj> init(n);
  uint64_t state = 0xa4093822299f31d0ull;
  for (auto& o : init) o.key = NextRand(&state);
  const double levels = std::log2(static_cast<double>(n));
  return MinOverReps(reps, [&] {
    std::vector<ProbeObj> buf = init;
    const double t0 = NowNs();
    std::sort(buf.begin(), buf.end(),
              [](const ProbeObj& a, const ProbeObj& b) {
                return a.key < b.key;
              });
    return (NowNs() - t0) / (n * levels);
  });
}

void MeasureHashNs(uint32_t reps, double* build_ns, double* probe_ns) {
  const uint64_t n = 1ull << 15;
  std::vector<uint64_t> keys(n);
  uint64_t state = 0x082efa98ec4e6c89ull;
  for (auto& k : keys) k = NextRand(&state);
  const uint64_t buckets = n;  // load factor 1, the drivers' shape
  *build_ns = MinOverReps(reps, [&] {
    std::vector<int32_t> head(buckets, -1), next(n, -1);
    const double t0 = NowNs();
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t b = keys[i] % buckets;
      next[i] = head[b];
      head[b] = static_cast<int32_t>(i);
    }
    return (NowNs() - t0) / n;
  });
  std::vector<int32_t> head(buckets, -1), next(n, -1);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t b = keys[i] % buckets;
    next[i] = head[b];
    head[b] = static_cast<int32_t>(i);
  }
  volatile uint64_t sink = 0;
  *probe_ns = MinOverReps(reps, [&] {
    const double t0 = NowNs();
    uint64_t hits = 0;
    for (uint64_t i = 0; i < n; ++i) {
      for (int32_t j = head[keys[i] % buckets]; j >= 0; j = next[j]) {
        if (keys[j] == keys[i]) {
          ++hits;
          break;
        }
      }
    }
    sink = sink + hits;
    return (NowNs() - t0) / n;
  });
}

double MeasureIndexProbeNsPerLevel(uint32_t reps) {
  const uint64_t n = 1ull << 20;
  std::vector<uint64_t> sorted(n);
  for (uint64_t i = 0; i < n; ++i) sorted[i] = i * 2;
  const uint64_t probes = 1ull << 14;
  std::vector<uint64_t> lookups(probes);
  uint64_t state = 0x452821e638d01377ull;
  for (auto& v : lookups) v = (NextRand(&state) % n) * 2;
  // A 64-fanout B+-tree over n keys descends ~log64(n) levels.
  const double levels =
      std::max(1.0, std::ceil(std::log(static_cast<double>(n)) /
                              std::log(64.0)));
  volatile uint64_t sink = 0;
  return MinOverReps(reps, [&] {
    const double t0 = NowNs();
    uint64_t found = 0;
    for (uint64_t v : lookups) {
      found += std::binary_search(sorted.begin(), sorted.end(), v) ? 1 : 0;
    }
    sink = sink + found;
    return (NowNs() - t0) / (probes * levels);
  });
}

double MeasureFaultUsPerPage(uint32_t reps) {
  const uint64_t bytes = 8ull << 20;
  const uint64_t pages = bytes / 4096;
  return MinOverReps(reps, [&] {
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) return 0.5;
    auto* p = static_cast<volatile uint8_t*>(base);
    const double t0 = NowNs();
    for (uint64_t off = 0; off < bytes; off += 4096) p[off] = 1;
    const double per_page_us = (NowNs() - t0) / pages * 1e-3;
    ::munmap(base, bytes);
    return per_page_us;
  });
}

// ---------------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------------

const char* kMachineKeys[] = {
    "seq_ns_per_byte",     "scatter_ns_per_byte",
    "sort_ns_per_cmp",     "hash_build_ns",
    "hash_probe_ns",       "index_probe_ns_per_level",
    "fault_us_per_page",   "llc_bytes",
    "numa_remote_seq_factor", "numa_remote_rand_factor",
    "numa_remote_copy_factor"};

double* MachineField(model::MachineProfile* m, const std::string& key) {
  if (key == "seq_ns_per_byte") return &m->seq_ns_per_byte;
  if (key == "scatter_ns_per_byte") return &m->scatter_ns_per_byte;
  if (key == "sort_ns_per_cmp") return &m->sort_ns_per_cmp;
  if (key == "hash_build_ns") return &m->hash_build_ns;
  if (key == "hash_probe_ns") return &m->hash_probe_ns;
  if (key == "index_probe_ns_per_level") return &m->index_probe_ns_per_level;
  if (key == "fault_us_per_page") return &m->fault_us_per_page;
  if (key == "numa_remote_seq_factor") return &m->numa_remote_seq_factor;
  if (key == "numa_remote_rand_factor") return &m->numa_remote_rand_factor;
  if (key == "numa_remote_copy_factor") return &m->numa_remote_copy_factor;
  return nullptr;
}

double MachineFieldValue(const model::MachineProfile& m,
                         const std::string& key) {
  if (key == "llc_bytes") return static_cast<double>(m.llc_bytes);
  return *MachineField(const_cast<model::MachineProfile*>(&m), key);
}

}  // namespace

void Calibration::Observe(join::Algorithm a, double workset_bytes,
                          double predicted_ms, double actual_ms) {
  if (!(predicted_ms > 0) || !(actual_ms > 0)) return;
  const uint32_t i = static_cast<uint32_t>(a);
  if (i >= kNumAlgorithms) return;
  const uint32_t b = BandFor(workset_bytes);
  // `predicted_ms` is the CORRECTED prediction the planner reported, so
  // the residual ratio already has this cell's correction factored in:
  // the fixed point of correction *= ratio^alpha is corrected == actual.
  // (Dividing by the correction here again would converge to the square
  // root of the true miss and stall the pick-flipping loop halfway.)
  const double ratio = std::clamp(actual_ms / predicted_ms, 0.1, 10.0);
  // Geometric EWMA: multiplicative errors average in log space.
  correction[i][b] = std::clamp(
      std::exp(std::log(correction[i][b]) + kEwmaAlpha * std::log(ratio)),
      0.05, 20.0);
  ++observations[i][b];
}

Calibration Calibration::HostDefaults() {
  Calibration c;
  c.machine.rand_points = {{32ull << 10, 15},   {256ull << 10, 40},
                           {2ull << 20, 70},    {16ull << 20, 110},
                           {64ull << 20, 140},  {512ull << 20, 170}};
  return c;
}

Calibration Calibration::ColdStoreReference() {
  Calibration c;
  // A pinned reference machine with the paper's economics: random access
  // over a large band is ruinous next to streaming, faults are costly, and
  // remote memory punishes random and scattered access far more than
  // sequential streaming. Never measured — the golden decision tests need
  // the same machine on every host.
  c.machine.seq_ns_per_byte = 0.12;
  c.machine.scatter_ns_per_byte = 0.25;
  c.machine.rand_points = {{32ull << 10, 18},  {256ull << 10, 60},
                           {2ull << 20, 140},  {16ull << 20, 420},
                           {64ull << 20, 800}, {512ull << 20, 1100}};
  c.machine.sort_ns_per_cmp = 4.5;
  c.machine.hash_build_ns = 38;
  c.machine.hash_probe_ns = 38;
  c.machine.index_probe_ns_per_level = 30;
  c.machine.fault_us_per_page = 2.0;
  c.machine.llc_bytes = 8ull << 20;
  c.machine.numa_remote_seq_factor = 1.3;
  c.machine.numa_remote_rand_factor = 3.0;
  c.machine.numa_remote_copy_factor = 2.2;
  return c;
}

Calibration MeasureCalibration(const MeasureOptions& options) {
  Calibration c;
  const uint32_t reps = options.repetitions;
  c.machine.seq_ns_per_byte = MeasureSeqNsPerByte(reps);
  c.machine.scatter_ns_per_byte = MeasureScatterNsPerByte(reps);
  c.machine.rand_points.clear();
  for (uint64_t band : {32ull << 10, 256ull << 10, 2ull << 20, 16ull << 20,
                        64ull << 20}) {
    if (band > options.max_band_bytes) break;
    c.machine.rand_points.push_back(
        {band, MeasureRandNs(band, reps)});
  }
  c.machine.sort_ns_per_cmp = MeasureSortNsPerCmp(reps);
  MeasureHashNs(reps, &c.machine.hash_build_ns, &c.machine.hash_probe_ns);
  c.machine.index_probe_ns_per_level = MeasureIndexProbeNsPerLevel(reps);
  c.machine.fault_us_per_page = MeasureFaultUsPerPage(reps);
  if (exec::DetectNumaNodes() > 1) {
    // Cross-node probes need both nodes under load to mean anything a
    // sub-second probe can't arrange; record fixed conservative factors.
    c.machine.numa_remote_seq_factor = 1.3;
    c.machine.numa_remote_rand_factor = 2.5;
    c.machine.numa_remote_copy_factor = 2.0;
  }
  return c;
}

std::string CalibrationToJson(const Calibration& c) {
  std::string json = "{\"calibration\":{\"version\":1,\"machine\":{";
  bool first = true;
  for (const char* key : kMachineKeys) {
    if (!first) json += ',';
    first = false;
    json += "\"" + std::string(key) +
            "\":" + obs::JsonNumber(MachineFieldValue(c.machine, key));
  }
  json += ",\"rand_curve\":[";
  for (size_t i = 0; i < c.machine.rand_points.size(); ++i) {
    if (i) json += ',';
    json += "{\"band_bytes\":" +
            obs::JsonNumber(
                static_cast<double>(c.machine.rand_points[i].band_blocks)) +
            ",\"ns\":" + obs::JsonNumber(c.machine.rand_points[i].ms_per_block) +
            "}";
  }
  json += "]},\"correction\":[";
  for (uint32_t i = 0; i < kNumAlgorithms; ++i) {
    if (i) json += ',';
    json += "{\"algorithm\":\"";
    json += join::AlgorithmName(static_cast<join::Algorithm>(i));
    json += "\",\"ewma\":[";
    for (uint32_t b = 0; b < kNumBands; ++b) {
      if (b) json += ',';
      json += obs::JsonNumber(c.correction[i][b]);
    }
    json += "],\"runs\":[";
    for (uint32_t b = 0; b < kNumBands; ++b) {
      if (b) json += ',';
      json += obs::JsonNumber(static_cast<double>(c.observations[i][b]));
    }
    json += "]}";
  }
  json += "]}}";
  return json;
}

StatusOr<Calibration> CalibrationFromJson(const std::string& json) {
  auto doc = obs::JsonParse(json);
  if (!doc.ok()) return doc.status();
  const obs::JsonValue* root = doc->Find("calibration");
  if (!root || !root->is_object()) {
    return Status::InvalidArgument("calibration: missing root object");
  }
  Calibration c;
  c.machine.rand_points.clear();
  bool saw_version = false;
  for (const auto& [key, value] : root->members) {
    if (key == "version") {
      if (!value.is_number() || value.number != 1) {
        return Status::InvalidArgument("calibration: unsupported version");
      }
      saw_version = true;
    } else if (key == "machine") {
      if (!value.is_object()) {
        return Status::InvalidArgument("calibration: machine not an object");
      }
      for (const auto& [mkey, mvalue] : value.members) {
        if (mkey == "rand_curve") {
          if (!mvalue.is_array()) {
            return Status::InvalidArgument(
                "calibration: rand_curve not an array");
          }
          for (const auto& pt : mvalue.items) {
            const obs::JsonValue* band = pt.Find("band_bytes");
            const obs::JsonValue* ns = pt.Find("ns");
            if (!band || !ns || !band->is_number() || !ns->is_number()) {
              return Status::InvalidArgument(
                  "calibration: malformed rand_curve point");
            }
            c.machine.rand_points.push_back(
                {static_cast<uint64_t>(band->number), ns->number});
          }
        } else if (mkey == "llc_bytes") {
          if (!mvalue.is_number()) {
            return Status::InvalidArgument("calibration: llc_bytes");
          }
          c.machine.llc_bytes = static_cast<uint64_t>(mvalue.number);
        } else if (double* field = MachineField(&c.machine, mkey)) {
          if (!mvalue.is_number()) {
            return Status::InvalidArgument("calibration: " + mkey);
          }
          *field = mvalue.number;
        } else {
          return Status::InvalidArgument("calibration: unknown machine key " +
                                         mkey);
        }
      }
    } else if (key == "correction") {
      if (!value.is_array() || value.items.size() != kNumAlgorithms) {
        return Status::InvalidArgument(
            "calibration: correction must list every driver");
      }
      for (const auto& entry : value.items) {
        const obs::JsonValue* name = entry.Find("algorithm");
        const obs::JsonValue* ewma = entry.Find("ewma");
        const obs::JsonValue* runs = entry.Find("runs");
        if (!name || !ewma || !runs || !name->is_string() ||
            !ewma->is_array() || ewma->items.size() != kNumBands ||
            !runs->is_array() || runs->items.size() != kNumBands) {
          return Status::InvalidArgument(
              "calibration: malformed correction entry");
        }
        const std::optional<join::Algorithm> a =
            join::ParseAlgorithm(name->str);
        if (!a) {
          return Status::InvalidArgument(
              "calibration: unknown algorithm " + name->str);
        }
        const auto index = static_cast<uint32_t>(*a);
        for (uint32_t b = 0; b < kNumBands; ++b) {
          if (!ewma->items[b].is_number() || !runs->items[b].is_number()) {
            return Status::InvalidArgument(
                "calibration: malformed correction band");
          }
          c.correction[index][b] = ewma->items[b].number;
          c.observations[index][b] =
              static_cast<uint64_t>(runs->items[b].number);
        }
      }
    } else {
      return Status::InvalidArgument("calibration: unknown key " + key);
    }
  }
  if (!saw_version) {
    return Status::InvalidArgument("calibration: missing version");
  }
  return c;
}

Status SaveCalibration(const Calibration& calibration,
                       const std::string& path) {
  const std::string json = CalibrationToJson(calibration);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Status::IOError("calibration: cannot open " + tmp);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  if (std::fclose(f) != 0 || written != json.size()) {
    std::remove(tmp.c_str());
    return Status::IOError("calibration: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("calibration: rename to " + path + " failed");
  }
  return Status::OK();
}

StatusOr<Calibration> LoadCalibration(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::NotFound("calibration: no file at " + path);
  std::string json;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) json.append(buf, n);
  std::fclose(f);
  return CalibrationFromJson(json);
}

}  // namespace mmjoin::opt
