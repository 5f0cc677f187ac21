#pragma once

/// \file trace.h
/// The benchmark's own instrumentation: layer spans recorded around calls
/// into the library's public functions (never inside src/), the open- and
/// closed-loop request generators, and the small JSON writer the result
/// file is built with.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double NowS();

// ---------------------------------------------------------------------------
// Spans. With tracing off a Span costs one branch; with it on, each span
// appends one record to its thread's buffer (no locks on the hot path).

void EnableTracing(bool on);
bool TracingEnabled();

/// Records [construction, destruction) under `layer` on the calling thread.
/// Spans on one thread nest (RAII), so the innermost open span at any
/// instant is the layer that thread is working in. `layer` must be a
/// string literal.
class Span {
 public:
  explicit Span(const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_ = nullptr;
  double start_ = 0.0;
  int depth_ = 0;
};

/// Writes every recorded span as TSV lines `thread layer start end depth`.
bool WriteSpans(const std::string& path);

// ---------------------------------------------------------------------------
// Open-loop generator.

/// One request of an open-loop run; times are seconds since the run began.
/// `due` is the schedule, `dispatch` when the generator actually queued it
/// (dispatch - due = generator lateness), `start`/`end` when a client ran
/// it. A request still queued at the drain deadline is abandoned with
/// ok = false and start = end = when it was abandoned: it is counted,
/// never dropped.
struct Request {
  double due = 0.0;
  double dispatch = 0.0;
  double start = 0.0;
  double end = 0.0;
  bool ok = false;
};

struct OpenLoopOptions {
  double rate = 100.0;    ///< requests per second, evenly spaced
  double seconds = 1.0;   ///< schedule length
  int clients = 8;        ///< concurrent client threads serving the queue
  double drain_s = 20.0;  ///< wait for queued requests after the schedule
};

/// Offers requests 0, 1, ... at `rate` for `seconds`, independent of how
/// fast they complete: a stalled request delays the requests queued behind
/// it, and their latency, timed from `due`, includes that wait.
/// `serve(i)` returns whether request i succeeded.
std::vector<Request> RunOpenLoop(const OpenLoopOptions& options,
                                 const std::function<bool(size_t)>& serve);

/// Closed loop: `clients` threads each send request i = 0, 1, ... (one
/// shared sequence) as soon as their previous one completes, until
/// `seconds` have passed or `count` requests were sent. A request is due
/// and dispatched when its client sends it, so its latency is its service
/// time; records are in sending order.
std::vector<Request> RunClosedLoop(int clients, double seconds, size_t count,
                                   const std::function<bool(size_t)>& serve);

// ---------------------------------------------------------------------------
// JSON output.

/// Builds one JSON object; values are written with full precision.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Nums(const std::string& key, const std::vector<double>& values);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonQuote(const std::string& text);
std::string RequestsJson(const std::vector<Request>& requests);

}  // namespace perfbench
