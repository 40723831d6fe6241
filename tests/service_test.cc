// The mmjoind service stack: strict protocol round-trips for every wire
// message, admission accept/queue/reject/drain semantics, concurrent
// queries over a real unix socket producing results byte-identical to
// serial runs on a 2-worker shared pool, and the drain-on-shutdown
// contract.
#include "service/server.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "join/drivers.h"
#include "mmap/segment_manager.h"
#include "scratch_dir.h"
#include "service/admission.h"
#include "service/client.h"
#include "service/protocol.h"

namespace mmjoin::svc {
namespace {

// ---------------------------------------------------------------------------
// Protocol round-trips: serialize -> strict parse -> identical fields, one
// case per wire message (docs/PROTOCOL.md documents exactly these shapes).

TEST(ProtocolTest, RequestRoundTripEveryOp) {
  Request hello;
  hello.op = RequestOp::kHello;
  hello.id = 7;
  hello.version = kProtocolVersion;

  Request reg;
  reg.op = RequestOp::kRegister;
  reg.id = 8;
  reg.name = "orders";
  reg.r_objects = 100000;
  reg.s_objects = 200000;
  reg.partitions = 16;
  reg.zipf_theta = 1.1;
  reg.seed = 42;

  Request query;
  query.op = RequestOp::kQuery;
  query.id = 9;
  query.name = "orders";
  query.priority = exec::QueryPriority::kHigh;
  query.trace = true;

  Request named;  // unregister exercises the bare name+op shape
  named.op = RequestOp::kUnregister;
  named.id = 10;
  named.name = "orders";

  Request persist;
  persist.op = RequestOp::kPersist;
  persist.id = 15;
  persist.name = "orders";
  persist.msync = "sync";

  Request load;  // load is the same name+op shape as unregister
  load.op = RequestOp::kLoad;
  load.id = 16;
  load.name = "orders";

  auto bare = [](RequestOp op, uint64_t id) {
    Request req;
    req.op = op;
    req.id = id;
    return req;
  };
  std::vector<Request> requests = {
      hello, reg, named, persist, load, bare(RequestOp::kList, 11),
      bare(RequestOp::kStats, 12), bare(RequestOp::kShutdown, 13),
      bare(RequestOp::kPing, 14)};
  // The query once per driver, then with the request-side "auto", which
  // carries no driver.
  for (const join::DriverSpec& driver : join::kDrivers) {
    query.algorithm = driver.algorithm;
    requests.push_back(query);
  }
  query.algorithm = Request{}.algorithm;
  query.algorithm_auto = true;
  requests.push_back(query);
  for (const Request& req : requests) {
    SCOPED_TRACE(RequestOpName(req.op));
    SCOPED_TRACE(join::AlgorithmName(req.algorithm));
    auto parsed = ParseRequest(SerializeRequest(req));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->op, req.op);
    EXPECT_EQ(parsed->id, req.id);
    EXPECT_EQ(parsed->name, req.name);
    EXPECT_EQ(parsed->r_objects, req.r_objects);
    EXPECT_EQ(parsed->s_objects, req.s_objects);
    EXPECT_EQ(parsed->partitions, req.partitions);
    EXPECT_DOUBLE_EQ(parsed->zipf_theta, req.zipf_theta);
    EXPECT_EQ(parsed->seed, req.seed);
    EXPECT_EQ(parsed->algorithm, req.algorithm);
    EXPECT_EQ(parsed->algorithm_auto, req.algorithm_auto);
    EXPECT_EQ(parsed->priority, req.priority);
    EXPECT_EQ(parsed->trace, req.trace);
    EXPECT_EQ(parsed->msync, req.msync);
  }
}

TEST(ProtocolTest, ResponseRoundTripEveryOp) {
  Response welcome;
  welcome.op = ResponseOp::kWelcome;
  welcome.id = 1;
  welcome.version = kProtocolVersion;

  Response registered;
  registered.op = ResponseOp::kRegistered;
  registered.id = 2;
  registered.name = "orders";
  registered.resident_bytes = 3 << 20;

  Response relations;
  relations.op = ResponseOp::kRelations;
  relations.id = 3;
  RelationInfo info;
  info.name = "orders";
  info.r_objects = 100000;
  info.s_objects = 200000;
  info.partitions = 16;
  info.zipf_theta = 1.1;
  info.seed = 42;
  info.resident_bytes = 3 << 20;
  info.pins = 2;
  info.durable = true;
  relations.relations.push_back(info);

  Response result;
  result.op = ResponseOp::kResult;
  result.id = 4;
  result.count = 123456789;
  // A checksum above 2^53 would be silently rounded as a JSON double —
  // the hex-string carriage must keep every bit.
  result.checksum = 0xDEADBEEFCAFEF00DULL;
  result.verified = true;
  result.exec_ms = 12.5;
  result.queue_ms = 0.25;
  result.threads = 4;

  Response stats;
  stats.op = ResponseOp::kStats;
  stats.id = 5;
  stats.stats.push_back(StatEntry{"svc.queries.admitted", 17});
  stats.stats.push_back(StatEntry{"svc.inflight_peak", 4});

  Response unregistered;
  unregistered.op = ResponseOp::kUnregistered;
  unregistered.id = 6;
  unregistered.name = "orders";

  Response error;
  error.op = ResponseOp::kError;
  error.id = 7;
  error.error = ErrorCode::kOverloaded;
  error.message = "admission queue full (16 waiting)";
  error.retry_after_ms = 250;

  Response draining;
  draining.op = ResponseOp::kDraining;
  draining.id = 8;

  Response pong;
  pong.op = ResponseOp::kPong;
  pong.id = 9;

  Response persisted;
  persisted.op = ResponseOp::kPersisted;
  persisted.id = 10;
  persisted.name = "orders";
  persisted.resident_bytes = 3 << 20;

  Response loaded;
  loaded.op = ResponseOp::kLoaded;
  loaded.id = 11;
  loaded.name = "orders";
  loaded.resident_bytes = 3 << 20;

  std::vector<Response> responses = {welcome, registered, relations,
                                     stats,   unregistered, error,
                                     draining, pong, persisted, loaded};
  for (const join::DriverSpec& driver : join::kDrivers) {
    result.algorithm = driver.algorithm;
    responses.push_back(result);
  }
  for (const Response& resp : responses) {
    SCOPED_TRACE(ResponseOpName(resp.op));
    SCOPED_TRACE(join::AlgorithmName(resp.algorithm));
    auto parsed = ParseResponse(SerializeResponse(resp));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->op, resp.op);
    EXPECT_EQ(parsed->id, resp.id);
    EXPECT_EQ(parsed->error, resp.error);
    EXPECT_EQ(parsed->message, resp.message);
    EXPECT_EQ(parsed->retry_after_ms, resp.retry_after_ms);
    EXPECT_EQ(parsed->name, resp.name);
    EXPECT_EQ(parsed->resident_bytes, resp.resident_bytes);
    EXPECT_EQ(parsed->count, resp.count);
    EXPECT_EQ(parsed->checksum, resp.checksum);
    EXPECT_EQ(parsed->verified, resp.verified);
    EXPECT_DOUBLE_EQ(parsed->exec_ms, resp.exec_ms);
    EXPECT_EQ(parsed->threads, resp.threads);
    EXPECT_EQ(parsed->algorithm, resp.algorithm);
    ASSERT_EQ(parsed->relations.size(), resp.relations.size());
    for (size_t i = 0; i < resp.relations.size(); ++i) {
      EXPECT_EQ(parsed->relations[i].name, resp.relations[i].name);
      EXPECT_EQ(parsed->relations[i].r_objects, resp.relations[i].r_objects);
      EXPECT_EQ(parsed->relations[i].pins, resp.relations[i].pins);
      EXPECT_EQ(parsed->relations[i].durable, resp.relations[i].durable);
    }
    ASSERT_EQ(parsed->stats.size(), resp.stats.size());
    for (size_t i = 0; i < resp.stats.size(); ++i) {
      EXPECT_EQ(parsed->stats[i].name, resp.stats[i].name);
      EXPECT_EQ(parsed->stats[i].value, resp.stats[i].value);
    }
  }
}

TEST(ProtocolTest, StrictParserRejectsGarbage) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("{}").ok());                       // no op
  EXPECT_FALSE(ParseRequest(R"({"op":"warp"})").ok());         // unknown op
  EXPECT_FALSE(ParseRequest(R"({"op":"ping","x":1})").ok());   // unknown field
  EXPECT_FALSE(ParseRequest(R"({"op":"ping","id":"7"})").ok());  // bad type
  EXPECT_FALSE(
      ParseRequest(R"({"op":"query","name":"r","algorithm":"quantum"})")
          .ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"query","name":"r","algorithm":"nested-hoops"})")
          .ok());
  // "auto" asks the planner to pick; a result always names the driver.
  EXPECT_FALSE(ParseResponse(R"({"op":"result","algorithm":"auto"})").ok());
  EXPECT_FALSE(ParseResponse(R"({"op":"result","checksum":123})").ok());
  EXPECT_FALSE(ParseResponse(R"({"op":"error","error":"oops"})").ok());
}

// ---------------------------------------------------------------------------
// Admission: accept / queue / reject / drain, deterministically sequenced.

TEST(AdmissionTest, AcceptQueueRejectAndRelease) {
  AdmissionOptions opts;
  opts.max_inflight = 1;
  opts.queue_limit = 1;
  AdmissionController ctl(opts);

  double queue_ms = 0;
  uint64_t retry = 0;
  auto first = ctl.Admit(100, &queue_ms, &retry);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(ctl.inflight(), 1u);

  // Second query queues (slot taken)...
  std::atomic<bool> second_admitted{false};
  std::thread waiter([&] {
    double qms = 0;
    auto t = ctl.Admit(100, &qms, nullptr);
    ASSERT_TRUE(t.ok());
    second_admitted.store(true);
    EXPECT_GT(qms, 0.0);
  });
  while (ctl.queued() < 1) std::this_thread::yield();
  EXPECT_FALSE(second_admitted.load());

  // ...and a third overflows the queue: immediate overloaded + retry hint.
  auto third = ctl.Admit(100, &queue_ms, &retry);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(retry, 10u);

  first->Release();
  waiter.join();  // the waiter's ticket released at its scope end
  EXPECT_TRUE(second_admitted.load());
  EXPECT_EQ(ctl.inflight(), 0u);
  EXPECT_EQ(ctl.peak_inflight(), 1u);  // never more than the single slot
  EXPECT_TRUE(ctl.AwaitIdle(1.0));
}

TEST(AdmissionTest, MemoryBudgetQueuesButLoneQueryAlwaysFits) {
  AdmissionOptions opts;
  opts.max_inflight = 4;
  opts.mem_budget_bytes = 100;
  AdmissionController ctl(opts);

  // A lone over-budget query is admitted — the budget bounds concurrency
  // pressure, it is not a hard cap on query size.
  auto big = ctl.Admit(1000, nullptr, nullptr);
  ASSERT_TRUE(big.ok());

  // With the budget exhausted, the next query queues until release.
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto t = ctl.Admit(50, nullptr, nullptr);
    ASSERT_TRUE(t.ok());
    admitted.store(true);
  });
  while (ctl.queued() < 1) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  big->Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

TEST(AdmissionTest, DrainWakesWaitersAndRejectsNewWork) {
  AdmissionOptions opts;
  opts.max_inflight = 1;
  AdmissionController ctl(opts);
  auto slot = ctl.Admit(1, nullptr, nullptr);
  ASSERT_TRUE(slot.ok());

  std::atomic<bool> drained_out{false};
  std::thread waiter([&] {
    auto t = ctl.Admit(1, nullptr, nullptr);
    EXPECT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
    drained_out.store(true);
  });
  while (ctl.queued() < 1) std::this_thread::yield();

  ctl.BeginDrain();
  waiter.join();
  EXPECT_TRUE(drained_out.load());

  auto refused = ctl.Admit(1, nullptr, nullptr);
  EXPECT_FALSE(refused.ok());

  // The in-flight query finishes normally; then the service is idle.
  EXPECT_FALSE(ctl.AwaitIdle(0.05));
  slot->Release();
  EXPECT_TRUE(ctl.AwaitIdle(5.0));
}

// ---------------------------------------------------------------------------
// End to end over a real unix socket.

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  void StartServer(uint32_t workers, uint32_t max_inflight,
                   bool load_store = false) {
    server_.reset();  // restart: release the old listener first
    ServerOptions opts;
    opts.socket_path = dir_ + "/svc.sock";
    opts.workers = workers;
    opts.admission.max_inflight = max_inflight;
    opts.drain_timeout_s = 30;
    opts.load_store = load_store;
    server_ = std::make_unique<Server>(mgr_.get(), opts);
    const Status st = server_->Start();
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  Client Connect() {
    Client client;
    Status st = client.Connect(server_->options().socket_path);
    EXPECT_TRUE(st.ok()) << st.ToString();
    st = client.Handshake();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return client;
  }

  Response MustCall(Client* client, const Request& req) {
    auto resp = client->Call(req);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    return resp.ok() ? *resp : Response{};
  }

  void RegisterRelation(Client* client, const std::string& name,
                        uint64_t objects) {
    Request req;
    req.op = RequestOp::kRegister;
    req.name = name;
    req.r_objects = objects;
    req.s_objects = objects;
    req.partitions = 4;
    req.seed = 7;
    const Response resp = MustCall(client, req);
    ASSERT_EQ(resp.op, ResponseOp::kRegistered)
        << ResponseOpName(resp.op) << ": " << resp.message;
    EXPECT_GT(resp.resident_bytes, 0u);
  }

  static Request QueryFor(const std::string& name, join::Algorithm a) {
    Request req;
    req.op = RequestOp::kQuery;
    req.name = name;
    req.algorithm = a;
    return req;
  }

  ScratchDir scratch_{"mmsvc"};
  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServiceTest, RegisterQueryUnregisterLifecycle) {
  StartServer(/*workers=*/2, /*max_inflight=*/2);
  Client client = Connect();
  RegisterRelation(&client, "rel", 2048);

  // Duplicate registration is already_exists, not a crash or overwrite.
  {
    Request req;
    req.op = RequestOp::kRegister;
    req.name = "rel";
    req.r_objects = 1024;
    req.s_objects = 1024;
    req.partitions = 4;
    const Response resp = MustCall(&client, req);
    ASSERT_EQ(resp.op, ResponseOp::kError);
    EXPECT_EQ(resp.error, ErrorCode::kAlreadyExists);
  }

  const Response result =
      MustCall(&client, QueryFor("rel", join::Algorithm::kGrace));
  ASSERT_EQ(result.op, ResponseOp::kResult) << result.message;
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.count, 2048u);
  EXPECT_EQ(result.threads, 2u);  // the pool's shape, not the relation's D

  {
    const Response resp =
        MustCall(&client, QueryFor("nope", join::Algorithm::kGrace));
    ASSERT_EQ(resp.op, ResponseOp::kError);
    EXPECT_EQ(resp.error, ErrorCode::kNotFound);
  }

  {
    Request req;
    req.op = RequestOp::kUnregister;
    req.name = "rel";
    const Response resp = MustCall(&client, req);
    ASSERT_EQ(resp.op, ResponseOp::kUnregistered);
  }
  {
    Request req;
    req.op = RequestOp::kList;
    const Response resp = MustCall(&client, req);
    ASSERT_EQ(resp.op, ResponseOp::kRelations);
    EXPECT_TRUE(resp.relations.empty());
  }
  server_->Drain();
  server_->Stop();
}

TEST_F(ServiceTest, HelloVersionNegotiation) {
  StartServer(1, 1);
  Client client;
  ASSERT_TRUE(client.Connect(server_->options().socket_path).ok());
  Request hello;
  hello.op = RequestOp::kHello;
  hello.version = 999;
  auto resp = client.Call(hello);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->op, ResponseOp::kError);
  EXPECT_EQ(resp->error, ErrorCode::kUnsupportedVersion);
  server_->Stop();
}

TEST_F(ServiceTest, ConcurrentQueriesMatchSerialOnTwoWorkerPool) {
  StartServer(/*workers=*/2, /*max_inflight=*/2);
  Client admin = Connect();
  RegisterRelation(&admin, "uni", 4096);

  // Serial references, one per algorithm, on the otherwise-idle service.
  const join::Algorithm kAlgos[] = {
      join::Algorithm::kNestedLoops, join::Algorithm::kSortMerge,
      join::Algorithm::kGrace, join::Algorithm::kHybridHash,
      join::Algorithm::kMpsm};
  uint64_t want_count[5];
  uint64_t want_checksum[5];
  for (int i = 0; i < 5; ++i) {
    const Response resp = MustCall(&admin, QueryFor("uni", kAlgos[i]));
    ASSERT_EQ(resp.op, ResponseOp::kResult) << resp.message;
    ASSERT_TRUE(resp.verified);
    want_count[i] = resp.count;
    want_checksum[i] = resp.checksum;
  }

  // Two clients, interleaving all five algorithms concurrently on the
  // 2-worker shared pool; every result must be byte-identical to serial.
  constexpr int kReps = 6;
  std::thread clients[2];
  for (int c = 0; c < 2; ++c) {
    clients[c] = std::thread([&, c] {
      Client client = Connect();
      for (int rep = 0; rep < kReps; ++rep) {
        const int i = (rep + c * 2) % 5;  // offset so the two interleave
        auto resp = client.Call(QueryFor("uni", kAlgos[i]));
        ASSERT_TRUE(resp.ok());
        ASSERT_EQ(resp->op, ResponseOp::kResult) << resp->message;
        EXPECT_TRUE(resp->verified);
        EXPECT_EQ(resp->count, want_count[i]);
        EXPECT_EQ(resp->checksum, want_checksum[i]);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  Request stats_req;
  stats_req.op = RequestOp::kStats;
  const Response stats = MustCall(&admin, stats_req);
  ASSERT_EQ(stats.op, ResponseOp::kStats);
  uint64_t completed = 0;
  for (const StatEntry& e : stats.stats) {
    if (e.name == "svc.queries.completed") completed = e.value;
  }
  EXPECT_EQ(completed, 5u + 2 * kReps);
  server_->Drain();
  server_->Stop();
}

TEST_F(ServiceTest, ShutdownDrainsAndRefusesNewWork) {
  StartServer(2, 2);
  Client client = Connect();
  RegisterRelation(&client, "rel", 2048);

  Request shutdown;
  shutdown.op = RequestOp::kShutdown;
  const Response resp = MustCall(&client, shutdown);
  ASSERT_EQ(resp.op, ResponseOp::kDraining);
  EXPECT_TRUE(server_->WaitShutdown(5.0));

  // The connection stays open through the drain: probes still answer,
  // new queries and registrations are refused with `draining`.
  Request ping;
  ping.op = RequestOp::kPing;
  EXPECT_EQ(MustCall(&client, ping).op, ResponseOp::kPong);
  {
    const Response refused =
        MustCall(&client, QueryFor("rel", join::Algorithm::kGrace));
    ASSERT_EQ(refused.op, ResponseOp::kError);
    EXPECT_EQ(refused.error, ErrorCode::kDraining);
  }
  {
    Request req;
    req.op = RequestOp::kRegister;
    req.name = "late";
    req.r_objects = 1024;
    req.s_objects = 1024;
    req.partitions = 4;
    const Response refused = MustCall(&client, req);
    ASSERT_EQ(refused.op, ResponseOp::kError);
    EXPECT_EQ(refused.error, ErrorCode::kDraining);
  }

  EXPECT_TRUE(server_->Drain());
  server_->Stop();
}

TEST_F(ServiceTest, PersistLoadWarmRestartOverTheWire) {
  StartServer(2, 2);
  Client client = Connect();
  RegisterRelation(&client, "durable", 2048);

  // Baseline answer before the restart; index-nl exercises the sealed
  // B+-tree alongside the relation data.
  const Response before =
      MustCall(&client, QueryFor("durable", join::Algorithm::kIndexNestedLoops));
  ASSERT_EQ(before.op, ResponseOp::kResult) << before.message;
  EXPECT_TRUE(before.verified);

  // Persist of an unknown relation is not_found, not a crash.
  {
    Request req;
    req.op = RequestOp::kPersist;
    req.name = "nope";
    const Response resp = MustCall(&client, req);
    ASSERT_EQ(resp.op, ResponseOp::kError);
    EXPECT_EQ(resp.error, ErrorCode::kNotFound);
  }
  {
    Request req;
    req.op = RequestOp::kPersist;
    req.name = "durable";
    req.msync = "warp";  // unknown policy is a bad_request, not a default
    const Response resp = MustCall(&client, req);
    ASSERT_EQ(resp.op, ResponseOp::kError);
    EXPECT_EQ(resp.error, ErrorCode::kBadRequest);
  }
  {
    Request req;
    req.op = RequestOp::kPersist;
    req.name = "durable";
    req.msync = "async";
    const Response resp = MustCall(&client, req);
    ASSERT_EQ(resp.op, ResponseOp::kPersisted) << resp.message;
    EXPECT_EQ(resp.name, "durable");
    EXPECT_GT(resp.resident_bytes, 0u);
  }
  {
    Request req;
    req.op = RequestOp::kList;
    const Response resp = MustCall(&client, req);
    ASSERT_EQ(resp.relations.size(), 1u);
    EXPECT_TRUE(resp.relations[0].durable);
  }
  // Loading a name that is already registered is already_exists.
  {
    Request req;
    req.op = RequestOp::kLoad;
    req.name = "durable";
    const Response resp = MustCall(&client, req);
    ASSERT_EQ(resp.op, ResponseOp::kError);
    EXPECT_EQ(resp.error, ErrorCode::kAlreadyExists);
  }

  // "Restart the daemon": tear the server down (the catalog keeps durable
  // files on disk) and start a fresh one over the same segment root with
  // the warm-restart scan enabled.
  server_->Drain();
  server_->Stop();
  StartServer(2, 2, /*load_store=*/true);
  Client client2 = Connect();
  {
    Request req;
    req.op = RequestOp::kList;
    const Response resp = MustCall(&client2, req);
    ASSERT_EQ(resp.op, ResponseOp::kRelations);
    ASSERT_EQ(resp.relations.size(), 1u);
    EXPECT_EQ(resp.relations[0].name, "durable");
    EXPECT_TRUE(resp.relations[0].durable);
  }
  // The reloaded relation answers every driver with the pre-restart
  // result — same count and checksum, no regeneration.
  for (join::Algorithm a :
       {join::Algorithm::kGrace, join::Algorithm::kIndexNestedLoops}) {
    const Response after = MustCall(&client2, QueryFor("durable", a));
    ASSERT_EQ(after.op, ResponseOp::kResult) << after.message;
    EXPECT_TRUE(after.verified);
    EXPECT_EQ(after.count, before.count);
    EXPECT_EQ(after.checksum, before.checksum);
  }
  // Explicit unregister of a durable relation deletes the store files: a
  // third restart's scan finds nothing.
  {
    Request req;
    req.op = RequestOp::kUnregister;
    req.name = "durable";
    const Response resp = MustCall(&client2, req);
    ASSERT_EQ(resp.op, ResponseOp::kUnregistered) << resp.message;
  }
  server_->Drain();
  server_->Stop();
  StartServer(2, 2, /*load_store=*/true);
  Client client3 = Connect();
  {
    Request req;
    req.op = RequestOp::kList;
    const Response resp = MustCall(&client3, req);
    ASSERT_EQ(resp.op, ResponseOp::kRelations);
    EXPECT_TRUE(resp.relations.empty());
  }
  server_->Drain();
  server_->Stop();
}

}  // namespace
}  // namespace mmjoin::svc
