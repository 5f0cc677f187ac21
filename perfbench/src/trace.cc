#include "trace.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {

double NowS() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

namespace {

struct SpanRecord {
  const char* layer;
  double start;
  double end;
  int depth;
};

struct ThreadBuffer {
  int thread = 0;
  std::vector<SpanRecord> spans;
};

bool g_tracing = false;
std::mutex g_buffers_mu;
// Buffers outlive their threads so spans of joined workers can be written.
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local int t_depth = 0;

ThreadBuffer* LocalBuffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    buffer->thread = static_cast<int>(g_buffers.size());
    g_buffers.push_back(buffer);
    t_buffer = buffer.get();
  }
  return t_buffer;
}

}  // namespace

void EnableTracing(bool on) { g_tracing = on; }
bool TracingEnabled() { return g_tracing; }

Span::Span(const char* layer) {
  if (!g_tracing) return;
  layer_ = layer;
  depth_ = t_depth++;
  start_ = NowS();
}

Span::~Span() {
  if (layer_ == nullptr) return;
  const double end = NowS();
  --t_depth;
  LocalBuffer()->spans.push_back({layer_, start_, end, depth_});
}

bool WriteSpans(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& span : buffer->spans) {
      std::fprintf(file, "%d\t%s\t%.9f\t%.9f\t%d\n", buffer->thread,
                   span.layer, span.start, span.end, span.depth);
    }
  }
  return std::fclose(file) == 0;
}

std::vector<Request> RunOpenLoop(const OpenLoopOptions& options,
                                 const std::function<bool(size_t)>& serve) {
  const size_t count = static_cast<size_t>(options.rate * options.seconds);
  std::vector<Request> requests(count);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> queue;
  bool closed = false;
  const double t0 = NowS();
  const double deadline = options.seconds + options.drain_s;

  auto client = [&] {
    for (;;) {
      size_t index = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        index = queue.front();
        queue.pop_front();
      }
      Request& request = requests[index];
      request.start = NowS() - t0;
      if (request.start > deadline) {  // abandoned: counted as failed
        request.end = request.start;
        request.ok = false;
        continue;
      }
      request.ok = serve(index);
      request.end = NowS() - t0;
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < options.clients; ++c) clients.emplace_back(client);

  // The default 50 us timer slack would make the generator itself late by
  // about that much on every request; ask for precise wake-ups.
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  for (size_t i = 0; i < count; ++i) {
    const double due = static_cast<double>(i) / options.rate;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(t0 + due - NowS()));
    std::lock_guard<std::mutex> lock(mu);
    requests[i].due = due;
    requests[i].dispatch = NowS() - t0;
    queue.push_back(i);
    cv.notify_one();
  }
  if (old_slack > 0) prctl(PR_SET_TIMERSLACK, old_slack, 0, 0, 0);
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& thread : clients) thread.join();
  return requests;
}

std::vector<Request> RunClosedLoop(int clients, double seconds, size_t count,
                                   const std::function<bool(size_t)>& serve) {
  std::vector<Request> requests(count);
  std::atomic<size_t> next{0};
  const double t0 = NowS();
  auto client = [&] {
    for (;;) {
      const double now = NowS() - t0;
      if (now >= seconds) return;
      const size_t index = next.fetch_add(1);
      if (index >= count) return;
      Request& request = requests[index];
      request.due = request.dispatch = request.start = now;
      request.ok = serve(index);
      request.end = NowS() - t0;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client);
  for (std::thread& thread : threads) thread.join();
  requests.resize(std::min(next.load(), count));
  return requests;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonQuote(key) + ": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonQuote(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Nums(const std::string& key,
                             const std::vector<double>& values) {
  Key(key);
  body_ += "[";
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), i == 0 ? "%.9g" : ", %.9g", values[i]);
    body_ += buf;
  }
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string RequestsJson(const std::vector<Request>& requests) {
  std::vector<double> due, dispatch, start, end, ok;
  for (const Request& r : requests) {
    due.push_back(r.due);
    dispatch.push_back(r.dispatch);
    start.push_back(r.start);
    end.push_back(r.end);
    ok.push_back(r.ok ? 1.0 : 0.0);
  }
  return JsonObject()
      .Nums("due", due)
      .Nums("dispatch", dispatch)
      .Nums("start", start)
      .Nums("end", end)
      .Nums("ok", ok)
      .Done();
}

}  // namespace perfbench
