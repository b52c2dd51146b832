// Shared live-stats plumbing for flowkv_stat and flowkv_dump --stats:
// fetch the kStats introspection document from a running flowkv_server and
// render it as a human-readable summary (or pass the raw JSON through).
//
// The JSON parser below is deliberately minimal: it parses exactly the
// well-formed documents Server::BuildStatsJson emits (objects, arrays,
// strings with \"/\\/\uXXXX escapes, numbers, booleans, null). It is a tool
// dependency, not a protocol one — the wire carries the document as an
// opaque string.
#ifndef TOOLS_STAT_FORMAT_H_
#define TOOLS_STAT_FORMAT_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/net/client.h"

namespace flowkv {
namespace tools {

// ----- minimal JSON document model -----

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* Get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double Num(const std::string& key, double dflt = 0) const {
    const JsonValue* v = Get(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->num : dflt;
  }
  bool Bool(const std::string& key, bool dflt = false) const {
    const JsonValue* v = Get(key);
    return v != nullptr && v->kind == Kind::kBool ? v->b : dflt;
  }
  std::string Str(const std::string& key, const std::string& dflt = "") const {
    const JsonValue* v = Get(key);
    return v != nullptr && v->kind == Kind::kString ? v->str : dflt;
  }
};

namespace json_internal {

inline void SkipWs(const char** p, const char* end) {
  while (*p < end && std::isspace(static_cast<unsigned char>(**p))) ++*p;
}

inline bool ParseValue(const char** p, const char* end, JsonValue* out);

inline bool ParseString(const char** p, const char* end, std::string* out) {
  if (*p >= end || **p != '"') return false;
  ++*p;
  out->clear();
  while (*p < end && **p != '"') {
    char c = **p;
    if (c == '\\') {
      ++*p;
      if (*p >= end) return false;
      switch (**p) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'u': {
          if (end - *p < 5) return false;
          char hex[5] = {(*p)[1], (*p)[2], (*p)[3], (*p)[4], '\0'};
          c = static_cast<char>(std::strtoul(hex, nullptr, 16));
          *p += 4;
          break;
        }
        default:
          return false;
      }
    }
    out->push_back(c);
    ++*p;
  }
  if (*p >= end) return false;
  ++*p;  // closing quote
  return true;
}

inline bool ParseValue(const char** p, const char* end, JsonValue* out) {
  SkipWs(p, end);
  if (*p >= end) return false;
  const char c = **p;
  if (c == '{') {
    ++*p;
    out->kind = JsonValue::Kind::kObject;
    SkipWs(p, end);
    if (*p < end && **p == '}') {
      ++*p;
      return true;
    }
    while (true) {
      SkipWs(p, end);
      std::string key;
      if (!ParseString(p, end, &key)) return false;
      SkipWs(p, end);
      if (*p >= end || **p != ':') return false;
      ++*p;
      JsonValue v;
      if (!ParseValue(p, end, &v)) return false;
      out->obj.emplace_back(std::move(key), std::move(v));
      SkipWs(p, end);
      if (*p >= end) return false;
      if (**p == ',') {
        ++*p;
        continue;
      }
      if (**p == '}') {
        ++*p;
        return true;
      }
      return false;
    }
  }
  if (c == '[') {
    ++*p;
    out->kind = JsonValue::Kind::kArray;
    SkipWs(p, end);
    if (*p < end && **p == ']') {
      ++*p;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!ParseValue(p, end, &v)) return false;
      out->arr.push_back(std::move(v));
      SkipWs(p, end);
      if (*p >= end) return false;
      if (**p == ',') {
        ++*p;
        continue;
      }
      if (**p == ']') {
        ++*p;
        return true;
      }
      return false;
    }
  }
  if (c == '"') {
    out->kind = JsonValue::Kind::kString;
    return ParseString(p, end, &out->str);
  }
  if (c == 't' && end - *p >= 4 && std::strncmp(*p, "true", 4) == 0) {
    out->kind = JsonValue::Kind::kBool;
    out->b = true;
    *p += 4;
    return true;
  }
  if (c == 'f' && end - *p >= 5 && std::strncmp(*p, "false", 5) == 0) {
    out->kind = JsonValue::Kind::kBool;
    out->b = false;
    *p += 5;
    return true;
  }
  if (c == 'n' && end - *p >= 4 && std::strncmp(*p, "null", 4) == 0) {
    out->kind = JsonValue::Kind::kNull;
    *p += 4;
    return true;
  }
  char* num_end = nullptr;
  out->num = std::strtod(*p, &num_end);
  if (num_end == *p || num_end > end) return false;
  out->kind = JsonValue::Kind::kNumber;
  *p = num_end;
  return true;
}

}  // namespace json_internal

inline bool ParseJson(const std::string& text, JsonValue* out) {
  const char* p = text.data();
  const char* end = text.data() + text.size();
  if (!json_internal::ParseValue(&p, end, out)) return false;
  json_internal::SkipWs(&p, end);
  return p == end;
}

// ----- endpoint parsing + fetch -----

inline bool ParseHostPort(const std::string& s, std::string* host, int* port) {
  const size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) {
    return false;
  }
  for (size_t i = colon + 1; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  *host = s.substr(0, colon);
  *port = std::atoi(s.c_str() + colon + 1);
  return *port > 0 && *port < 65536;
}

inline Status FetchStatsJson(const std::string& host, int port, std::string* json) {
  net::ClientOptions opts;
  opts.host = host;
  opts.port = port;
  opts.connect_timeout_ms = 2000;
  opts.request_timeout_ms = 5000;
  opts.max_retries = 0;  // a stats poll should fail fast, not mask outages
  std::unique_ptr<net::Client> client;
  FLOWKV_RETURN_IF_ERROR(net::Client::Connect(opts, &client));
  return client->Stats(json);
}

// ----- human-readable rendering -----

// Compact one-line cluster summary ("primary epoch=3 lease=3000ms ..."),
// used as the per-poll line in `flowkv_stat --watch` and inline in the full
// snapshot. Covers role/epoch/lease health plus the standby replication lag
// and heartbeat age the primary tracks.
inline std::string FormatClusterLine(const JsonValue& root) {
  char buf[256];
  static const JsonValue kAbsent;
  const JsonValue* cluster = root.Get("cluster");
  if (cluster == nullptr) {
    cluster = &kAbsent;
  }
  std::snprintf(buf, sizeof(buf), "cluster: %s epoch=%lld lease_ms=%lld priority=%lld",
                cluster->Str("role", "unknown").c_str(),
                static_cast<long long>(cluster->Num("epoch")),
                static_cast<long long>(cluster->Num("lease_ms")),
                static_cast<long long>(cluster->Num("priority")));
  std::string line = buf;
  const long long fenced = static_cast<long long>(cluster->Num("fenced_rejects"));
  if (fenced > 0) {
    std::snprintf(buf, sizeof(buf), "  fenced_rejects=%lld", fenced);
    line += buf;
  }
  const JsonValue* repl = root.Get("replication");
  if (repl != nullptr && repl->Bool("subscribed")) {
    std::snprintf(buf, sizeof(buf), "  standby: lag=%lld hb_age=%.0fms",
                  static_cast<long long>(repl->Num("lag")),
                  repl->Num("heartbeat_age_ms"));
    line += buf;
  }
  return line;
}

inline void PrintStatsHuman(const JsonValue& root, const std::string& endpoint,
                            std::FILE* out) {
  const JsonValue* server = root.Get("server");
  std::fprintf(out, "flowkv_server %s — shards: %d, window %.1fs\n", endpoint.c_str(),
               server != nullptr ? static_cast<int>(server->Num("num_shards")) : 0,
               root.Num("window_s"));
  if (server != nullptr) {
    std::fprintf(out,
                 "requests %lld (%.1f req/s)   bytes in/out %lld/%lld   "
                 "open conns %lld   pending %lld\n",
                 static_cast<long long>(server->Num("requests")),
                 server->Num("req_per_sec"),
                 static_cast<long long>(server->Num("bytes_in")),
                 static_cast<long long>(server->Num("bytes_out")),
                 static_cast<long long>(server->Num("open_conns")),
                 static_cast<long long>(server->Num("pending_requests")));
    std::fprintf(out, "shed: overload %lld, deadline %lld   protocol errors %lld\n",
                 static_cast<long long>(server->Num("shed_overload")),
                 static_cast<long long>(server->Num("shed_deadline")),
                 static_cast<long long>(server->Num("protocol_errors")));
    const JsonValue* lat = server->Get("request_latency_ms");
    if (lat != nullptr) {
      std::fprintf(out,
                   "request latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f  (n=%lld)\n",
                   lat->Num("p50"), lat->Num("p95"), lat->Num("p99"), lat->Num("max"),
                   static_cast<long long>(lat->Num("count")));
    }
  }
  const JsonValue* cluster = root.Get("cluster");
  if (cluster != nullptr) {
    std::fprintf(out, "%s\n", FormatClusterLine(root).c_str());
  }
  const JsonValue* repl = root.Get("replication");
  if (repl != nullptr && repl->Bool("subscribed")) {
    std::fprintf(out,
                 "replication: subscribed, lag %lld seq, %lld parked, "
                 "heartbeat age %.0f ms\n",
                 static_cast<long long>(repl->Num("lag")),
                 static_cast<long long>(repl->Num("parked")),
                 repl->Num("heartbeat_age_ms"));
  } else {
    std::fprintf(out, "replication: no standby\n");
  }
  const JsonValue* trace = root.Get("trace");
  if (trace != nullptr) {
    std::fprintf(out, "trace: %s, %lld events, %lld dropped\n",
                 trace->Bool("enabled") ? "enabled" : "disabled",
                 static_cast<long long>(trace->Num("events")),
                 static_cast<long long>(trace->Num("dropped")));
  }
  const JsonValue* prefetch = root.Get("prefetch");
  if (prefetch != nullptr) {
    if (prefetch->Bool("enabled")) {
      std::fprintf(out,
                   "prefetch: %lld registrations   fired %lld windows "
                   "(%lld values, %lld bytes)   pushes sent/dropped %lld/%lld\n",
                   static_cast<long long>(prefetch->Num("registrations")),
                   static_cast<long long>(prefetch->Num("fired")),
                   static_cast<long long>(prefetch->Num("fired_entries")),
                   static_cast<long long>(prefetch->Num("fired_bytes")),
                   static_cast<long long>(prefetch->Num("pushes_sent")),
                   static_cast<long long>(prefetch->Num("pushes_dropped")));
      std::fprintf(out,
                   "          ETT accuracy: invalidated %lld, overflow %lld, "
                   "waste %lld   shadow bytes %lld\n",
                   static_cast<long long>(prefetch->Num("invalidated")),
                   static_cast<long long>(prefetch->Num("overflow")),
                   static_cast<long long>(prefetch->Num("waste")),
                   static_cast<long long>(prefetch->Num("shadow_bytes")));
    } else {
      std::fprintf(out, "prefetch: disabled\n");
    }
  }

  const JsonValue* shards = root.Get("shards");
  if (shards != nullptr) {
    std::fprintf(out, "\n%-5s %-6s %-10s %-9s  %-16s %-8s %8s %8s %8s %8s\n", "shard",
                 "queue", "ops", "ops/s", "op", "n", "p50", "p95", "p99", "max");
    for (const JsonValue& shard : shards->arr) {
      const int id = static_cast<int>(shard.Num("shard"));
      std::fprintf(out, "%-5d %-6lld %-10lld %-9.1f", id,
                   static_cast<long long>(shard.Num("queue_depth")),
                   static_cast<long long>(shard.Num("ops")), shard.Num("ops_per_sec"));
      const JsonValue* lats = shard.Get("op_latency_ms");
      bool first = true;
      if (lats != nullptr) {
        for (const JsonValue& l : lats->arr) {
          if (!first) {
            std::fprintf(out, "%-33s", "");  // align continuation rows
          }
          first = false;
          std::fprintf(out, "  %-16s %-8lld %8.3f %8.3f %8.3f %8.3f\n",
                       l.Str("op").c_str(), static_cast<long long>(l.Num("count")),
                       l.Num("p50"), l.Num("p95"), l.Num("p99"), l.Num("max"));
        }
      }
      if (first) {
        std::fprintf(out, "\n");
      }
    }
  }

  const JsonValue* slow = root.Get("slow_requests");
  if (slow != nullptr && !slow->arr.empty()) {
    std::fprintf(out, "\nslow requests (threshold %.1f ms, slowest first):\n",
                 root.Num("slow_threshold_ms"));
    for (const JsonValue& s : slow->arr) {
      const std::string read_path = s.Str("read_path");
      std::fprintf(out,
                   "  req %llu conn %llu trace %llu ops %llu: total %.3f ms "
                   "(queue %.3f, exec %.3f)%s%s\n",
                   static_cast<unsigned long long>(s.Num("request_id")),
                   static_cast<unsigned long long>(s.Num("conn_id")),
                   static_cast<unsigned long long>(s.Num("trace_id")),
                   static_cast<unsigned long long>(s.Num("ops")), s.Num("total_ms"),
                   s.Num("queue_wait_ms"), s.Num("exec_ms"),
                   read_path.empty() ? "" : "  read ", read_path.c_str());
    }
  }
}

// Fetch + render in one call; `raw_json` passes the document through
// untouched (for scripting with jq). When `cluster_line` is non-null it
// receives the compact one-line cluster summary for this snapshot (used by
// `flowkv_stat --watch` as its per-poll tick line).
inline int PrintLiveStats(const std::string& endpoint, bool raw_json, std::FILE* out,
                          std::string* cluster_line = nullptr) {
  std::string host;
  int port = 0;
  if (!ParseHostPort(endpoint, &host, &port)) {
    std::fprintf(stderr, "bad endpoint (expected HOST:PORT): %s\n", endpoint.c_str());
    return 2;
  }
  std::string json;
  const Status s = FetchStatsJson(host, port, &json);
  if (!s.ok()) {
    std::fprintf(stderr, "stats fetch from %s failed: %s\n", endpoint.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  if (raw_json) {
    std::fprintf(out, "%s\n", json.c_str());
    return 0;
  }
  JsonValue root;
  if (!ParseJson(json, &root)) {
    std::fprintf(stderr, "unparseable stats document:\n%s\n", json.c_str());
    return 1;
  }
  PrintStatsHuman(root, endpoint, out);
  if (cluster_line != nullptr) {
    *cluster_line = FormatClusterLine(root);
  }
  return 0;
}

}  // namespace tools
}  // namespace flowkv

#endif  // TOOLS_STAT_FORMAT_H_
