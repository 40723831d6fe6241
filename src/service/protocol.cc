#include "service/protocol.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "obs/json.h"

namespace mmjoin::svc {

namespace {

using obs::JsonEscape;
using obs::JsonNumber;
using obs::JsonValue;

template <size_t N>
bool ParseName(const char* const (&names)[N], std::string_view s, int* out) {
  for (size_t i = 0; i < N; ++i) {
    if (s == names[i]) {
      *out = static_cast<int>(i);
      return true;
    }
  }
  return false;
}

constexpr const char* kPriorityNames[] = {"low", "normal", "high"};

std::string HexU64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

bool ParseHexU64(std::string_view s, uint64_t* out) {
  if (s.size() < 3 || s.size() > 18 || s[0] != '0' || s[1] != 'x') {
    return false;
  }
  uint64_t v = 0;
  for (char c : s.substr(2)) {
    uint64_t d;
    if (c >= '0' && c <= '9') d = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') d = static_cast<uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') d = static_cast<uint64_t>(c - 'A' + 10);
    else return false;
    v = (v << 4) | d;
  }
  *out = v;
  return true;
}

// Integers ride in JSON numbers (doubles): exact up to 2^53, far beyond
// any object count, id, or duration the service carries. The one 64-bit
// field that genuinely needs all bits — the output checksum — is a hex
// string instead.
bool GetU64(const JsonValue& v, uint64_t* out) {
  if (!v.is_number() || v.number < 0) return false;
  *out = static_cast<uint64_t>(v.number);
  return true;
}

bool GetU32(const JsonValue& v, uint32_t* out) {
  uint64_t u;
  if (!GetU64(v, &u) || u > UINT32_MAX) return false;
  *out = static_cast<uint32_t>(u);
  return true;
}

bool GetBool(const JsonValue& v, bool* out) {
  if (v.kind != JsonValue::Kind::kBool) return false;
  *out = v.boolean;
  return true;
}

Status Bad(const std::string& what) {
  return Status::InvalidArgument("protocol: " + what);
}

}  // namespace

const char* RequestOpName(RequestOp op) {
  return kRequestOps[static_cast<uint8_t>(op)];
}
const char* ResponseOpName(ResponseOp op) {
  return kResponseOps[static_cast<uint8_t>(op)];
}
const char* ErrorCodeName(ErrorCode code) {
  return kErrorCodes[static_cast<uint8_t>(code)];
}

bool ParseRequestOp(std::string_view name, RequestOp* out) {
  int i;
  if (!ParseName(kRequestOps, name, &i)) return false;
  *out = static_cast<RequestOp>(i);
  return true;
}
bool ParseResponseOp(std::string_view name, ResponseOp* out) {
  int i;
  if (!ParseName(kResponseOps, name, &i)) return false;
  *out = static_cast<ResponseOp>(i);
  return true;
}
bool ParseErrorCode(std::string_view name, ErrorCode* out) {
  int i;
  if (!ParseName(kErrorCodes, name, &i)) return false;
  *out = static_cast<ErrorCode>(i);
  return true;
}

std::string SerializeRequest(const Request& req) {
  std::string s = "{\"op\":\"";
  s += RequestOpName(req.op);
  s += "\",\"id\":" + JsonNumber(static_cast<double>(req.id));
  switch (req.op) {
    case RequestOp::kHello:
      s += ",\"version\":" + JsonNumber(req.version);
      break;
    case RequestOp::kRegister:
      s += ",\"name\":\"" + JsonEscape(req.name) + "\"";
      s += ",\"r_objects\":" + JsonNumber(static_cast<double>(req.r_objects));
      s += ",\"s_objects\":" + JsonNumber(static_cast<double>(req.s_objects));
      s += ",\"partitions\":" + JsonNumber(req.partitions);
      s += ",\"zipf_theta\":" + JsonNumber(req.zipf_theta);
      s += ",\"seed\":" + JsonNumber(static_cast<double>(req.seed));
      break;
    case RequestOp::kQuery:
      s += ",\"name\":\"" + JsonEscape(req.name) + "\"";
      s += ",\"algorithm\":\"";
      s += req.algorithm_auto ? join::kAutoAlgorithmName
                              : join::AlgorithmName(req.algorithm);
      s += "\",\"priority\":\"";
      s += kPriorityNames[static_cast<uint8_t>(req.priority)];
      s += "\",\"trace\":";
      s += req.trace ? "true" : "false";
      break;
    case RequestOp::kRunPlan:
      s += ",\"name\":\"" + JsonEscape(req.name) + "\"";
      s += ",\"plan\":\"" + JsonEscape(req.plan) + "\"";
      s += ",\"priority\":\"";
      s += kPriorityNames[static_cast<uint8_t>(req.priority)];
      s += "\",\"trace\":";
      s += req.trace ? "true" : "false";
      break;
    case RequestOp::kUnregister:
    case RequestOp::kLoad:
      s += ",\"name\":\"" + JsonEscape(req.name) + "\"";
      break;
    case RequestOp::kPersist:
      s += ",\"name\":\"" + JsonEscape(req.name) + "\"";
      if (!req.msync.empty()) {
        s += ",\"msync\":\"" + JsonEscape(req.msync) + "\"";
      }
      break;
    case RequestOp::kList:
    case RequestOp::kStats:
    case RequestOp::kShutdown:
    case RequestOp::kPing:
      break;
  }
  s += "}";
  return s;
}

StatusOr<Request> ParseRequest(std::string_view line) {
  MMJOIN_ASSIGN_OR_RETURN(JsonValue doc, obs::JsonParse(line));
  if (!doc.is_object()) return Bad("request is not a JSON object");
  const JsonValue* opv = doc.Find("op");
  if (!opv || !opv->is_string()) return Bad("missing \"op\" string");
  Request req;
  if (!ParseRequestOp(opv->str, &req.op)) {
    return Bad("unknown request op \"" + opv->str + "\"");
  }
  for (const auto& [key, value] : doc.members) {
    if (key == "op") continue;
    if (key == "id") {
      if (!GetU64(value, &req.id)) return Bad("bad \"id\"");
      continue;
    }
    bool ok = false;
    switch (req.op) {
      case RequestOp::kHello:
        if (key == "version") ok = GetU32(value, &req.version);
        break;
      case RequestOp::kRegister:
        if (key == "name" && value.is_string()) {
          req.name = value.str;
          ok = true;
        } else if (key == "r_objects") {
          ok = GetU64(value, &req.r_objects);
        } else if (key == "s_objects") {
          ok = GetU64(value, &req.s_objects);
        } else if (key == "partitions") {
          ok = GetU32(value, &req.partitions);
        } else if (key == "zipf_theta" && value.is_number()) {
          req.zipf_theta = value.number;
          ok = true;
        } else if (key == "seed") {
          ok = GetU64(value, &req.seed);
        }
        break;
      case RequestOp::kQuery:
        if (key == "name" && value.is_string()) {
          req.name = value.str;
          ok = true;
        } else if (key == "algorithm" && value.is_string()) {
          const std::optional<join::Algorithm> a =
              join::ParseAlgorithm(value.str);
          req.algorithm_auto = value.str == join::kAutoAlgorithmName;
          ok = a.has_value() || req.algorithm_auto;
          if (a) req.algorithm = *a;
        } else if (key == "priority" && value.is_string()) {
          int i;
          ok = ParseName(kPriorityNames, value.str, &i);
          if (ok) req.priority = static_cast<exec::QueryPriority>(i);
        } else if (key == "trace") {
          ok = GetBool(value, &req.trace);
        }
        break;
      case RequestOp::kRunPlan:
        if (key == "name" && value.is_string()) {
          req.name = value.str;
          ok = true;
        } else if (key == "plan" && value.is_string()) {
          req.plan = value.str;
          ok = true;
        } else if (key == "priority" && value.is_string()) {
          int i;
          ok = ParseName(kPriorityNames, value.str, &i);
          if (ok) req.priority = static_cast<exec::QueryPriority>(i);
        } else if (key == "trace") {
          ok = GetBool(value, &req.trace);
        }
        break;
      case RequestOp::kUnregister:
      case RequestOp::kLoad:
        if (key == "name" && value.is_string()) {
          req.name = value.str;
          ok = true;
        }
        break;
      case RequestOp::kPersist:
        if (key == "name" && value.is_string()) {
          req.name = value.str;
          ok = true;
        } else if (key == "msync" && value.is_string()) {
          req.msync = value.str;
          ok = true;
        }
        break;
      case RequestOp::kList:
      case RequestOp::kStats:
      case RequestOp::kShutdown:
      case RequestOp::kPing:
        break;
    }
    if (!ok) {
      return Bad("unknown or ill-typed field \"" + key + "\" for op \"" +
                 std::string(RequestOpName(req.op)) + "\"");
    }
  }
  return req;
}

std::string SerializeResponse(const Response& resp) {
  std::string s = "{\"op\":\"";
  s += ResponseOpName(resp.op);
  s += "\",\"id\":" + JsonNumber(static_cast<double>(resp.id));
  switch (resp.op) {
    case ResponseOp::kWelcome:
      s += ",\"version\":" + JsonNumber(resp.version);
      break;
    case ResponseOp::kError:
      s += ",\"error\":\"";
      s += ErrorCodeName(resp.error);
      s += "\",\"message\":\"" + JsonEscape(resp.message) + "\"";
      if (resp.retry_after_ms > 0) {
        s += ",\"retry_after_ms\":" +
             JsonNumber(static_cast<double>(resp.retry_after_ms));
      }
      break;
    case ResponseOp::kRegistered:
    case ResponseOp::kUnregistered:
    case ResponseOp::kPersisted:
    case ResponseOp::kLoaded:
      s += ",\"name\":\"" + JsonEscape(resp.name) + "\"";
      s += ",\"resident_bytes\":" +
           JsonNumber(static_cast<double>(resp.resident_bytes));
      break;
    case ResponseOp::kResult:
      s += ",\"name\":\"" + JsonEscape(resp.name) + "\"";
      s += ",\"algorithm\":\"";
      s += join::AlgorithmName(resp.algorithm);
      s += "\"";
      if (resp.planner_auto) s += ",\"planner\":\"auto\"";
      s += ",\"count\":" + JsonNumber(static_cast<double>(resp.count));
      s += ",\"checksum\":\"" + HexU64(resp.checksum) + "\"";
      s += ",\"verified\":";
      s += resp.verified ? "true" : "false";
      s += ",\"exec_ms\":" + JsonNumber(resp.exec_ms);
      s += ",\"queue_ms\":" + JsonNumber(resp.queue_ms);
      s += ",\"threads\":" + JsonNumber(resp.threads);
      break;
    case ResponseOp::kPlanResult: {
      s += ",\"name\":\"" + JsonEscape(resp.name) + "\"";
      s += ",\"plan\":\"" + JsonEscape(resp.plan) + "\"";
      s += ",\"count\":" + JsonNumber(static_cast<double>(resp.count));
      s += ",\"checksum\":\"" + HexU64(resp.checksum) + "\"";
      s += ",\"verified\":";
      s += resp.verified ? "true" : "false";
      s += ",\"rows_scanned\":" +
           JsonNumber(static_cast<double>(resp.rows_scanned));
      s += ",\"rows_filtered\":" +
           JsonNumber(static_cast<double>(resp.rows_filtered));
      s += ",\"rows_joined\":" +
           JsonNumber(static_cast<double>(resp.rows_joined));
      s += ",\"groups\":[";
      bool first = true;
      for (const PlanGroupEntry& g : resp.groups) {
        if (!first) s += ',';
        first = false;
        s += "{\"key\":\"" + HexU64(g.key) + "\",\"aggs\":[";
        bool afirst = true;
        for (uint64_t a : g.aggs) {
          if (!afirst) s += ',';
          afirst = false;
          s += JsonNumber(static_cast<double>(a));
        }
        s += "]}";
      }
      s += "]";
      s += ",\"exec_ms\":" + JsonNumber(resp.exec_ms);
      s += ",\"queue_ms\":" + JsonNumber(resp.queue_ms);
      s += ",\"threads\":" + JsonNumber(resp.threads);
      break;
    }
    case ResponseOp::kRelations: {
      s += ",\"relations\":[";
      bool first = true;
      for (const RelationInfo& r : resp.relations) {
        if (!first) s += ',';
        first = false;
        s += "{\"name\":\"" + JsonEscape(r.name) + "\"";
        s += ",\"r_objects\":" + JsonNumber(static_cast<double>(r.r_objects));
        s += ",\"s_objects\":" + JsonNumber(static_cast<double>(r.s_objects));
        s += ",\"partitions\":" + JsonNumber(r.partitions);
        s += ",\"zipf_theta\":" + JsonNumber(r.zipf_theta);
        s += ",\"seed\":" + JsonNumber(static_cast<double>(r.seed));
        s += ",\"resident_bytes\":" +
             JsonNumber(static_cast<double>(r.resident_bytes));
        s += ",\"pins\":" + JsonNumber(r.pins);
        s += ",\"durable\":";
        s += r.durable ? "true" : "false";
        s += "}";
      }
      s += "]";
      break;
    }
    case ResponseOp::kStats: {
      s += ",\"counters\":{";
      bool first = true;
      for (const StatEntry& e : resp.stats) {
        if (!first) s += ',';
        first = false;
        s += "\"" + JsonEscape(e.name) +
             "\":" + JsonNumber(static_cast<double>(e.value));
      }
      s += "}";
      break;
    }
    case ResponseOp::kDraining:
    case ResponseOp::kPong:
      break;
  }
  s += "}";
  return s;
}

StatusOr<Response> ParseResponse(std::string_view line) {
  MMJOIN_ASSIGN_OR_RETURN(JsonValue doc, obs::JsonParse(line));
  if (!doc.is_object()) return Bad("response is not a JSON object");
  const JsonValue* opv = doc.Find("op");
  if (!opv || !opv->is_string()) return Bad("missing \"op\" string");
  Response resp;
  if (!ParseResponseOp(opv->str, &resp.op)) {
    return Bad("unknown response op \"" + opv->str + "\"");
  }
  for (const auto& [key, value] : doc.members) {
    if (key == "op") continue;
    if (key == "id") {
      if (!GetU64(value, &resp.id)) return Bad("bad \"id\"");
      continue;
    }
    bool ok = false;
    switch (resp.op) {
      case ResponseOp::kWelcome:
        if (key == "version") ok = GetU32(value, &resp.version);
        break;
      case ResponseOp::kError:
        if (key == "error" && value.is_string()) {
          ok = ParseErrorCode(value.str, &resp.error);
        } else if (key == "message" && value.is_string()) {
          resp.message = value.str;
          ok = true;
        } else if (key == "retry_after_ms") {
          ok = GetU64(value, &resp.retry_after_ms);
        }
        break;
      case ResponseOp::kRegistered:
      case ResponseOp::kUnregistered:
      case ResponseOp::kPersisted:
      case ResponseOp::kLoaded:
        if (key == "name" && value.is_string()) {
          resp.name = value.str;
          ok = true;
        } else if (key == "resident_bytes") {
          ok = GetU64(value, &resp.resident_bytes);
        }
        break;
      case ResponseOp::kResult:
        if (key == "name" && value.is_string()) {
          resp.name = value.str;
          ok = true;
        } else if (key == "algorithm" && value.is_string()) {
          // Results always name the concrete driver that ran; "auto" is
          // request-side vocabulary only.
          const std::optional<join::Algorithm> a =
              join::ParseAlgorithm(value.str);
          ok = a.has_value();
          if (a) resp.algorithm = *a;
        } else if (key == "planner" && value.is_string()) {
          ok = value.str == join::kAutoAlgorithmName;
          if (ok) resp.planner_auto = true;
        } else if (key == "count") {
          ok = GetU64(value, &resp.count);
        } else if (key == "checksum" && value.is_string()) {
          ok = ParseHexU64(value.str, &resp.checksum);
        } else if (key == "verified") {
          ok = GetBool(value, &resp.verified);
        } else if (key == "exec_ms" && value.is_number()) {
          resp.exec_ms = value.number;
          ok = true;
        } else if (key == "queue_ms" && value.is_number()) {
          resp.queue_ms = value.number;
          ok = true;
        } else if (key == "threads") {
          ok = GetU32(value, &resp.threads);
        }
        break;
      case ResponseOp::kPlanResult:
        if (key == "name" && value.is_string()) {
          resp.name = value.str;
          ok = true;
        } else if (key == "plan" && value.is_string()) {
          resp.plan = value.str;
          ok = true;
        } else if (key == "count") {
          ok = GetU64(value, &resp.count);
        } else if (key == "checksum" && value.is_string()) {
          ok = ParseHexU64(value.str, &resp.checksum);
        } else if (key == "verified") {
          ok = GetBool(value, &resp.verified);
        } else if (key == "rows_scanned") {
          ok = GetU64(value, &resp.rows_scanned);
        } else if (key == "rows_filtered") {
          ok = GetU64(value, &resp.rows_filtered);
        } else if (key == "rows_joined") {
          ok = GetU64(value, &resp.rows_joined);
        } else if (key == "groups" && value.is_array()) {
          ok = true;
          for (const JsonValue& item : value.items) {
            if (!item.is_object()) return Bad("group entry not an object");
            PlanGroupEntry group;
            for (const auto& [k, v] : item.members) {
              bool fok = false;
              if (k == "key" && v.is_string()) {
                fok = ParseHexU64(v.str, &group.key);
              } else if (k == "aggs" && v.is_array()) {
                fok = true;
                for (const JsonValue& a : v.items) {
                  uint64_t acc;
                  if (!GetU64(a, &acc)) return Bad("bad group accumulator");
                  group.aggs.push_back(acc);
                }
              }
              if (!fok) return Bad("bad group field \"" + k + "\"");
            }
            resp.groups.push_back(std::move(group));
          }
        } else if (key == "exec_ms" && value.is_number()) {
          resp.exec_ms = value.number;
          ok = true;
        } else if (key == "queue_ms" && value.is_number()) {
          resp.queue_ms = value.number;
          ok = true;
        } else if (key == "threads") {
          ok = GetU32(value, &resp.threads);
        }
        break;
      case ResponseOp::kRelations:
        if (key == "relations" && value.is_array()) {
          ok = true;
          for (const JsonValue& item : value.items) {
            if (!item.is_object()) return Bad("relation entry not an object");
            RelationInfo info;
            for (const auto& [k, v] : item.members) {
              bool fok = false;
              if (k == "name" && v.is_string()) {
                info.name = v.str;
                fok = true;
              } else if (k == "r_objects") {
                fok = GetU64(v, &info.r_objects);
              } else if (k == "s_objects") {
                fok = GetU64(v, &info.s_objects);
              } else if (k == "partitions") {
                fok = GetU32(v, &info.partitions);
              } else if (k == "zipf_theta" && v.is_number()) {
                info.zipf_theta = v.number;
                fok = true;
              } else if (k == "seed") {
                fok = GetU64(v, &info.seed);
              } else if (k == "resident_bytes") {
                fok = GetU64(v, &info.resident_bytes);
              } else if (k == "pins") {
                fok = GetU32(v, &info.pins);
              } else if (k == "durable") {
                fok = GetBool(v, &info.durable);
              }
              if (!fok) return Bad("bad relation field \"" + k + "\"");
            }
            resp.relations.push_back(std::move(info));
          }
        }
        break;
      case ResponseOp::kStats:
        if (key == "counters" && value.is_object()) {
          ok = true;
          for (const auto& [k, v] : value.members) {
            StatEntry e;
            e.name = k;
            if (!GetU64(v, &e.value)) return Bad("bad counter \"" + k + "\"");
            resp.stats.push_back(std::move(e));
          }
        }
        break;
      case ResponseOp::kDraining:
      case ResponseOp::kPong:
        break;
    }
    if (!ok) {
      return Bad("unknown or ill-typed field \"" + key + "\" for op \"" +
                 std::string(ResponseOpName(resp.op)) + "\"");
    }
  }
  return resp;
}

}  // namespace mmjoin::svc
