// Golden simulator costs: pins the simulator's exact elapsed time, per-pass
// time and faults, total faults and write-backs, plus the output, for all
// six drivers on three fixed shapes. The simulator is deterministic, so a
// refactor that keeps each driver's sequence of backend operations must
// reproduce these doubles bit for bit; cross_backend_test only checks the
// output and the pass labels.
//
// The values were recorded from the drivers before the bucketed drivers'
// passes 0/1 were folded into op::BucketRepartition. A deliberate cost-model
// change re-records them: a failing case prints its actual row in the
// table's source form.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "join/grace.h"
#include "join/hybrid_hash.h"
#include "join/index_nl.h"
#include "join/join_common.h"
#include "join/mpsm.h"
#include "join/nested_loops.h"
#include "join/sort_merge.h"
#include "rel/generator.h"
#include "sim/sim_env.h"

namespace mmjoin {
namespace {

using join::Algorithm;

struct Shape {
  const char* name;
  double theta;
  uint32_t k_buckets;  // 0 = the Grace plan's automatic K
};

// θ=1.1 with K=512 leaves buckets empty (most of R piles onto a few S
// objects), which exercises the empty-bucket paths of the bucketed drivers.
constexpr Shape kShapes[] = {
    {"uniform", 0.0, 0},
    {"zipf09", 0.9, 0},
    {"zipf11_k512", 1.1, 512},
};

constexpr Algorithm kAlgorithms[] = {
    Algorithm::kNestedLoops, Algorithm::kSortMerge,
    Algorithm::kGrace,       Algorithm::kHybridHash,
    Algorithm::kIndexNestedLoops, Algorithm::kMpsm};

struct GoldenPass {
  const char* label;
  double elapsed_ms;
  uint64_t faults;
};

struct Golden {
  const char* driver;
  const char* shape;
  double elapsed_ms;
  uint64_t faults;
  uint64_t write_backs;
  uint64_t output_count;
  uint64_t output_checksum;
  std::vector<GoldenPass> passes;
};

// clang-format off
const std::vector<Golden>& GoldenTable() {
  static const std::vector<Golden> table = {
    {"nested-loops", "uniform", 23762.985767755203, 7154, 201, 8192, 4932698774064551625ull,
     {{"setup", 815.30000000000007, 0},
      {"pass0", 6480.8255472043547, 1940},
      {"pass1", 16466.860220550847, 5214}}},
    {"nested-loops", "zipf09", 14518.366334256532, 4224, 201, 8192, 6846131787780569536ull,
     {{"setup", 815.29999999999995, 0},
      {"pass0", 8844.8875663925119, 1191},
      {"pass1", 4858.1787678640212, 3033}}},
    {"nested-loops", "zipf11_k512", 9162.6447986635958, 2506, 200, 8192, 5105510070544261679ull,
     {{"setup", 815.30000000000007, 0},
      {"pass0", 6174.7490364121049, 810},
      {"pass1", 2172.5957622514907, 1696}}},
    {"sort-merge", "uniform", 7553.5468249652686, 1514, 673, 8192, 4932698774064551625ull,
     {{"setup", 1599.7, 0},
      {"pass0", 960.37745328023698, 264},
      {"pass1", 911.35748213802208, 202},
      {"sort+merge+join", 4082.1118895470095, 1048}}},
    {"sort-merge", "zipf09", 22841.29997802234, 1712, 873, 8192, 6846131787780569536ull,
     {{"setup", 1599.7, 0},
      {"pass0", 1030.9472483813508, 265},
      {"pass1", 2401.1078158587493, 198},
      {"sort+merge+join", 17809.54491378224, 1249}}},
    {"sort-merge", "zipf11_k512", 25784.565885349959, 1758, 930, 8192, 5105510070544261679ull,
     {{"setup", 1599.6999999999998, 0},
      {"pass0", 1240.1637245621405, 281},
      {"pass1", 2749.902702870173, 196},
      {"sort+merge+join", 20194.799457917645, 1281}}},
    {"grace", "uniform", 7172.4514775025182, 1300, 675, 8192, 4932698774064551625ull,
     {{"setup", 1289.4000000000001, 0},
      {"pass0", 2797.826201891859, 496},
      {"pass1", 1442.6247759461721, 274},
      {"bucket-join", 1642.600499664487, 530}}},
    {"grace", "zipf09", 36666.280614930467, 2895, 2258, 8192, 6846131787780569536ull,
     {{"setup", 1289.4000000000001, 0},
      {"pass0", 10828.838516222453, 919},
      {"pass1", 21328.633204754209, 1462},
      {"bucket-join", 3219.4088939538051, 514}}},
    {"grace", "zipf11_k512", 91317.29631730559, 4725, 4127, 8192, 5105510070544261679ull,
     {{"setup", 1289.4000000000001, 0},
      {"pass0", 23082.478661984809, 1326},
      {"pass1", 62875.362338448569, 2895},
      {"bucket-join", 4070.0553168722108, 504}}},
    {"hybrid-hash", "uniform", 6312.4548337063989, 1187, 566, 8192, 4932698774064551625ull,
     {{"setup", 1273.45, 0},
      {"pass0", 2000.1592375082712, 396},
      {"pass1", 1413.859048693927, 272},
      {"bucket-join", 1624.9865475042006, 519}}},
    {"hybrid-hash", "zipf09", 34947.49415022404, 2792, 2155, 8192, 6846131787780569536ull,
     {{"setup", 1245.9000000000001, 0},
      {"pass0", 9394.5596381680843, 850},
      {"pass1", 21271.018914046275, 1458},
      {"bucket-join", 3036.0155980096824, 484}}},
    {"hybrid-hash", "zipf11_k512", 90166.748468515143, 4674, 4076, 8192, 5105510070544261679ull,
     {{"setup", 1260.4000000000001, 0},
      {"pass0", 22027.098350222259, 1287},
      {"pass1", 62941.211087542149, 2903},
      {"bucket-join", 3938.0390307507332, 484}}},
    {"index-nl", "uniform", 9321.6492185566294, 1568, 935, 8192, 4932698774064551625ull,
     {{"setup", 1289.4000000000001, 0},
      {"pass0", 2797.826201891859, 496},
      {"pass1", 1442.6247759461721, 274},
      {"index-build", 1642.3663359400607, 284},
      {"index-probe", 2149.4319047785375, 514}}},
    {"index-nl", "zipf09", 43693.113307511347, 3288, 2506, 8192, 6846131787780569536ull,
     {{"setup", 1289.4000000000001, 0},
      {"pass0", 10828.838516222453, 919},
      {"pass1", 21328.633204754209, 1462},
      {"index-build", 6336.6868340673755, 405},
      {"index-probe", 3909.5547524673093, 502}}},
    {"index-nl", "zipf11_k512", 98068.202723129187, 5078, 4363, 8192, 5105510070544261679ull,
     {{"setup", 1289.4000000000001, 0},
      {"pass0", 23082.478661984809, 1326},
      {"pass1", 62875.362338448569, 2895},
      {"index-build", 6831.4370999933308, 376},
      {"index-probe", 3989.5246227024763, 481}}},
    {"mpsm", "uniform", 3170.3333518911204, 1308, 28, 8192, 4932698774064551625ull,
     {{"setup", 670.40000000000009, 0},
      {"pass0", 379.54560000000288, 256},
      {"pass1", 238.24000000000046, 28},
      {"sort+merge+join", 1882.147751891117, 1024}}},
    {"mpsm", "zipf09", 3186.3853518911142, 1206, 28, 8192, 6846131787780569536ull,
     {{"setup", 670.40000000000009, 0},
      {"pass0", 379.54560000000288, 256},
      {"pass1", 237.91200000000049, 28},
      {"sort+merge+join", 1898.5277518911107, 922}}},
    {"mpsm", "zipf11_k512", 3028.4623152195077, 982, 28, 8192, 5105510070544261679ull,
     {{"setup", 670.40000000000009, 0},
      {"pass0", 379.54560000000288, 256},
      {"pass1", 238.02100000000041, 28},
      {"sort+merge+join", 1740.4957152195043, 698}}},
  };
  return table;
}
// clang-format on

StatusOr<join::JoinRunResult> RunSim(Algorithm a, const Shape& shape) {
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 8192;
  rc.num_partitions = 4;
  rc.zipf_theta = shape.theta;
  rc.seed = 20260806;

  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  mc.num_disks = rc.num_partitions;
  sim::SimEnv env(mc);
  auto workload = rel::BuildWorkload(&env, rc);
  if (!workload.ok()) return workload.status();

  join::JoinParams params;
  params.m_rproc_bytes =
      static_cast<uint64_t>(0.05 * rc.r_objects * sizeof(rel::RObject));
  params.m_sproc_bytes = params.m_rproc_bytes;
  params.k_buckets = shape.k_buckets;
  switch (a) {
    case Algorithm::kNestedLoops:
      return join::RunNestedLoops(&env, *workload, params);
    case Algorithm::kSortMerge:
      return join::RunSortMerge(&env, *workload, params);
    case Algorithm::kGrace:
      return join::RunGrace(&env, *workload, params);
    case Algorithm::kHybridHash:
      return join::RunHybridHash(&env, *workload, params);
    case Algorithm::kIndexNestedLoops:
      return join::RunIndexNestedLoops(&env, *workload, params);
    case Algorithm::kMpsm:
      return join::RunMpsm(&env, *workload, params);
  }
  return Status::InvalidArgument("bad algorithm");
}

// The row a result would have in GoldenTable(); %.17g round-trips a double.
std::string FormatRow(const char* driver, const char* shape,
                      const join::JoinRunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\", \"%s\", %.17g, %llu, %llu, %llu, %lluull,\n"
                "     {",
                driver, shape, r.elapsed_ms,
                static_cast<unsigned long long>(r.faults),
                static_cast<unsigned long long>(r.write_backs),
                static_cast<unsigned long long>(r.output_count),
                static_cast<unsigned long long>(r.output_checksum));
  std::string row = buf;
  for (size_t p = 0; p < r.passes.size(); ++p) {
    std::snprintf(buf, sizeof(buf), "%s{\"%s\", %.17g, %llu}",
                  p ? ",\n      " : "", r.passes[p].label.c_str(),
                  r.passes[p].elapsed_ms,
                  static_cast<unsigned long long>(r.passes[p].faults));
    row += buf;
  }
  return row + "}},";
}

struct GoldenCase {
  Algorithm algorithm;
  Shape shape;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << join::AlgorithmName(c.algorithm) << "/" << c.shape.name;
}

class SimGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SimGoldenTest, CostsAreBitIdentical) {
  const GoldenCase c = GetParam();
  const char* driver = join::AlgorithmName(c.algorithm);
  auto result = RunSim(c.algorithm, c.shape);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->verified);
  const std::string actual = FormatRow(driver, c.shape.name, *result);

  const Golden* golden = nullptr;
  for (const Golden& g : GoldenTable()) {
    if (std::string(g.driver) == driver &&
        std::string(g.shape) == c.shape.name) {
      golden = &g;
    }
  }
  ASSERT_NE(golden, nullptr) << "no golden row; actual:\n" << actual;

  // Exact comparisons throughout: the simulator is deterministic.
  EXPECT_EQ(result->elapsed_ms, golden->elapsed_ms) << actual;
  EXPECT_EQ(result->faults, golden->faults) << actual;
  EXPECT_EQ(result->write_backs, golden->write_backs) << actual;
  EXPECT_EQ(result->output_count, golden->output_count) << actual;
  EXPECT_EQ(result->output_checksum, golden->output_checksum) << actual;
  ASSERT_EQ(result->passes.size(), golden->passes.size()) << actual;
  for (size_t p = 0; p < golden->passes.size(); ++p) {
    EXPECT_EQ(result->passes[p].label, golden->passes[p].label) << actual;
    EXPECT_EQ(result->passes[p].elapsed_ms, golden->passes[p].elapsed_ms)
        << golden->passes[p].label << "\n" << actual;
    EXPECT_EQ(result->passes[p].faults, golden->passes[p].faults)
        << golden->passes[p].label << "\n" << actual;
  }
}

std::vector<GoldenCase> AllCases() {
  std::vector<GoldenCase> cases;
  for (Algorithm a : kAlgorithms) {
    for (const Shape& s : kShapes) cases.push_back(GoldenCase{a, s});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, SimGoldenTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name = join::AlgorithmName(info.param.algorithm);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_" + info.param.shape.name;
    });

}  // namespace
}  // namespace mmjoin
