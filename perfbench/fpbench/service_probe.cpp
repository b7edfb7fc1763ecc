#include "service_probe.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.h"
#include "floorplan/serialize.h"
#include "io/command.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/server.h"
#include "telemetry/json.h"
#include "telemetry/run_report.h"

namespace perfbench {

using namespace fpopt;

std::string optimize_frame(std::uint64_t id, const std::string& topology,
                           const std::string& library, const std::string& options_json,
                           int priority) {
  const FrameAround f = optimize_frame_around(id, topology, options_json, priority);
  return f.head + telemetry::json_quote(library) + f.tail;
}

FrameAround optimize_frame_around(std::uint64_t id, const std::string& topology,
                                  const std::string& options_json, int priority) {
  FrameAround f;
  f.head = "{\"fpopt_request\":{\"schema_version\":1,\"id\":" + std::to_string(id) +
           ",\"command\":\"optimize\",\"topology\":" + telemetry::json_quote(topology) +
           ",\"library\":";
  if (!options_json.empty()) f.tail += ",\"options\":{" + options_json + "}";
  f.tail += ",\"priority\":" + std::to_string(priority) + "}}";
  return f;
}

std::string joined(const FramePieces& pieces) {
  std::string out;
  for (const std::string_view p : pieces) out += p;
  return out;
}

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int e = errno;
    ::close(fd);
    throw std::runtime_error("connect " + path + ": " + std::strerror(e));
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Closes a descriptor on scope exit.
struct Fd {
  int fd = -1;
  explicit Fd(int f) : fd(f) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& o) noexcept : fd(o.fd) { o.fd = -1; }
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

bool status_ok(const std::string& response) {
  return response.find("\"status\":\"ok\"") != std::string::npos;
}

}  // namespace

LiveServer::LiveServer(ServiceConfig config, std::string socket_path, const std::string& log_path)
    : socket_path_(std::move(socket_path)), log_path_(log_path) {
  log_file_ = std::make_unique<std::ofstream>(log_path, std::ios::trunc);
  if (!*log_file_) throw std::runtime_error("cannot open log file " + log_path);
  log_ = std::make_unique<telemetry::LogSink>(*log_file_, telemetry::LogLevel::kInfo);
  config.log = log_.get();
  service_ = std::make_unique<Service>(config);
  if (service_->metrics() != nullptr) service_->metrics()->attach_log(log_.get());
  thread_ = std::thread([this] {
    std::ostringstream err;
    try {
      if (serve_unix(*service_, socket_path_, err) != 0) {
        std::fprintf(stderr, "fpbench: serve_unix: %s", err.str().c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fpbench: serve_unix threw: %s\n", e.what());
    }
  });
  // Wait until the listener answers.
  const auto start = Clock::now();
  while (true) {
    try {
      Fd probe(connect_unix(socket_path_));
      break;
    } catch (const std::runtime_error&) {
      if (since(start) > 10) {
        service_->request_shutdown();
        thread_.join();
        throw std::runtime_error("fpoptd did not come up on " + socket_path_);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

LiveServer::~LiveServer() {
  try {
    (void)round_trip(socket_path_,
                     "{\"fpopt_request\":{\"schema_version\":1,\"id\":0,\"command\":\"shutdown\"}}");
  } catch (const std::exception&) {
    service_->request_shutdown();
  }
  thread_.join();
  if (service_->metrics() != nullptr) service_->metrics()->attach_log(nullptr);
  service_.reset();  // before the sink it logs to
  log_.reset();
  log_file_.reset();
  std::remove(log_path_.c_str());
}

std::string round_trip(const std::string& socket_path, const std::string& frame) {
  Fd fd(connect_unix(socket_path));
  if (!send_all(fd.fd, frame + "\n")) throw std::runtime_error("send failed");
  std::string response;
  char buf[65536];
  while (response.empty() || response.back() != '\n') {
    const ssize_t n = ::read(fd.fd, buf, sizeof buf);
    if (n == 0) throw std::runtime_error("connection closed before the response");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("read: " + std::string(std::strerror(errno)));
    }
    response.append(buf, static_cast<std::size_t>(n));
  }
  response.pop_back();
  return response;
}

std::vector<Outcome> run_open_loop(const std::string& socket_path, unsigned conns,
                                   const std::vector<Planned>& plan, double grace_s) {
  // Sleep no later than asked: the default 50 us timer slack would show
  // up as generator lag.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // A woken server thread lands on the generator's CPU (Unix-socket
  // wakeups are synchronous); run the generator at a higher priority so
  // it sends on time instead of waiting out the server's slice. Best
  // effort: without CAP_SYS_NICE the lag is reported as it is.
  struct Priority {
    const id_t tid = static_cast<id_t>(::gettid());
    const int old = ::getpriority(PRIO_PROCESS, tid);
    Priority() { (void)::setpriority(PRIO_PROCESS, tid, -10); }
    ~Priority() { (void)::setpriority(PRIO_PROCESS, tid, old); }
  } const priority;
  struct Conn {
    Fd fd;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::deque<std::size_t> waiting;  ///< plan indices, in send order
  };
  std::vector<Conn> cs;
  for (unsigned c = 0; c < conns; ++c) {
    cs.push_back(Conn{Fd(connect_unix(socket_path)), {}, 0, {}, {}});
    ::fcntl(cs.back().fd.fd, F_SETFL, ::fcntl(cs.back().fd.fd, F_GETFL) | O_NONBLOCK);
  }
  std::vector<Outcome> outcomes(plan.size());
  const double last_due = plan.empty() ? 0 : plan.back().due_s;
  std::size_t next = 0;
  std::size_t answered = 0;
  std::vector<pollfd> pfds(conns);
  char buf[65536];
  const auto start = Clock::now();
  while (answered < plan.size()) {
    double now = since(start);
    if (now > last_due + grace_s) break;
    while (next < plan.size() && plan[next].due_s <= now) {
      Conn& c = cs[plan[next].conn];
      for (const std::string_view piece : plan[next].frame) c.out.append(piece);
      c.out += '\n';
      c.waiting.push_back(next);
      outcomes[next].issued_s = now;
      ++next;
    }
    for (Conn& c : cs) {
      while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                                 MSG_NOSIGNAL);
        if (n <= 0) break;
        c.out_off += static_cast<std::size_t>(n);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    for (unsigned i = 0; i < conns; ++i) {
      pfds[i] = {cs[i].fd.fd, static_cast<short>(POLLIN | (cs[i].out.empty() ? 0 : POLLOUT)), 0};
    }
    // Sleep until the next frame is due. (The generator does not spin: a
    // spinning sender shares its CPU with the server thread its writes
    // wake, and both slow down. KeepAwake makes the sleep end on time.)
    const double wait_s = next < plan.size() ? std::max(0.0, plan[next].due_s - since(start))
                                             : std::min(0.05, last_due + grace_s - now);
    timespec ts{static_cast<time_t>(wait_s),
                static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (unsigned i = 0; i < conns; ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = cs[i];
      const ssize_t n = ::read(c.fd.fd, buf, sizeof buf);
      if (n <= 0) continue;
      const double t = since(start);
      c.in.append(buf, static_cast<std::size_t>(n));
      std::size_t line_start = 0;
      for (std::size_t nl; (nl = c.in.find('\n', line_start)) != std::string::npos;
           line_start = nl + 1) {
        if (c.waiting.empty()) continue;  // unsolicited line: cannot be ours
        const std::size_t idx = c.waiting.front();
        c.waiting.pop_front();
        Outcome& o = outcomes[idx];
        o.received_s = t;
        const std::string line = c.in.substr(line_start, nl - line_start);
        o.ok = status_ok(line);
        if (plan[idx].keep_response) o.response = line;
        ++answered;
      }
      c.in.erase(0, line_start);
    }
  }
  return outcomes;
}

MetricsSnapshot snapshot_metrics(const std::string& socket_path) {
  const std::string response = round_trip(
      socket_path, "{\"fpopt_request\":{\"schema_version\":1,\"id\":0,\"command\":\"metrics\"}}");
  const auto outer = telemetry::parse_json(response);
  const telemetry::JsonValue* body = outer.value ? outer.value->find("fpopt_response") : nullptr;
  const telemetry::JsonValue* output = body ? body->find("output") : nullptr;
  if (output == nullptr || !output->is_string()) {
    throw std::runtime_error("metrics verb failed: " + response.substr(0, 200));
  }
  const auto doc = telemetry::parse_json(output->string);
  const telemetry::JsonValue* root = doc.value ? doc.value->find("fpopt_metrics") : nullptr;
  if (root == nullptr) throw std::runtime_error("metrics document malformed");

  // Sum of one family's series: counter/gauge values, or histogram
  // counts and sums.
  struct Sums {
    double value = 0, count = 0, sum = 0;
  };
  const auto family = [&](const char* section, const std::string& name) {
    Sums s;
    const telemetry::JsonValue* list = root->find(section);
    if (list == nullptr) return s;
    for (const telemetry::JsonValue& fam : list->array) {
      const telemetry::JsonValue* n = fam.find("name");
      if (n == nullptr || n->string != name) continue;
      for (const telemetry::JsonValue& series : fam.find("series")->array) {
        if (const auto* v = series.find("value")) s.value += v->number;
        if (const auto* c = series.find("count")) s.count += c->number;
        if (const auto* m = series.find("sum_seconds")) s.sum += m->number;
      }
    }
    return s;
  };
  MetricsSnapshot m;
  const Sums req = family("histograms", "fpoptd_request_seconds");
  m.requests = req.count;
  m.request_sum_s = req.sum;
  const Sums exec = family("histograms", "fpoptd_execute_seconds");
  m.execute_count = exec.count;
  m.execute_sum_s = exec.sum;
  const Sums wait = family("histograms", "fpoptd_queue_wait_seconds");
  m.queue_wait_count = wait.count;
  m.queue_wait_sum_s = wait.sum;
  m.cache_hits = family("counters", "fpoptd_cache_hits_total").value;
  m.cache_misses = family("counters", "fpoptd_cache_misses_total").value;
  m.cache_insertions = family("counters", "fpoptd_cache_insertions_total").value;
  m.cache_evictions = family("counters", "fpoptd_cache_evictions_total").value;
  m.cache_peak_bytes = family("gauges", "fpoptd_cache_peak_bytes").value;
  m.log_lines = family("counters", "fpoptd_log_lines_total").value;
  return m;
}

namespace {

/// Decode + parse a frame the way Service::handle_request does.
bool decode_and_parse(const std::string& frame, ServiceRequest& request, FloorplanTree& tree,
                      std::string& problem) {
  ServiceError error;
  if (!decode_request(frame, request, error)) {
    problem = "decode: " + error.message;
    return false;
  }
  try {
    tree = parse_floorplan(request.topology, parse_module_library(request.library));
  } catch (const ParseError& e) {
    problem = std::string("parse: ") + e.what();
    return false;
  }
  if (!tree.validate().empty()) {
    problem = "invalid floorplan";
    return false;
  }
  return true;
}

}  // namespace

StageTimes time_stages(const std::vector<std::string>& frames) {
  StageTimes st;
  ServiceConfig local_config;
  local_config.shared_cache = false;  // every incremental request runs cold, as below
  local_config.metrics = false;
  Service local(local_config);
  std::vector<double> decode, parse, format, encode;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::string& frame = frames[i];
    ServiceRequest request;
    FloorplanTree tree;
    std::string problem;
    // Untimed first pass: every timed pass below finds the same warm caches.
    const std::string served = local.handle_frame(frame);
    if (!decode_and_parse(frame, request, tree, problem)) {
      st.problems.push_back(problem);
      continue;
    }

    // The staged pass times each public stage in handle_frame's order.
    double t_decode = 0, t_parse = 0, t_execute = 0, t_encode = 0;
    std::string response;
    const auto staged = [&] {
      ServiceRequest req;
      ServiceError error;
      auto t0 = Clock::now();
      (void)decode_request(frame, req, error);
      t_decode = since(t0);
      t0 = Clock::now();
      const FloorplanTree parsed =
          parse_floorplan(req.topology, parse_module_library(req.library));
      t_parse = since(t0);
      std::ostringstream out;
      t0 = Clock::now();
      execute_command(req.spec, parsed, CommandEnv{}, out, nullptr);
      t_execute = since(t0);
      t0 = Clock::now();
      response = build_ok_response(req.id_json, out.str(), "");
      t_encode = since(t0);
    };
    double t_handle = 0, t_format = 0;
    const auto whole = [&] {
      const auto t0 = Clock::now();
      (void)local.handle_frame(frame);
      t_handle = since(t0);
    };
    // The io layer's own time: execute_command minus the optimizer wall
    // time it reports for the same call.
    const auto formatted = [&] {
      telemetry::RunReport report("fpbench", request.spec.command);
      std::ostringstream out;
      const auto t0 = Clock::now();
      execute_command(request.spec, tree, CommandEnv{}, out, &report);
      const double t_call = since(t0);
      const auto doc = telemetry::parse_json(report.to_json(false));
      const telemetry::JsonValue* body = doc.value ? doc.value->find("fpopt_run_report") : nullptr;
      const telemetry::JsonValue* secs = body ? body->find("seconds") : nullptr;
      t_format = t_call - (secs != nullptr ? secs->number : 0.0);
    };
    try {
      // Alternate the order so no pass always runs first.
      if (i % 2 == 0) {
        staged();
        whole();
        formatted();
      } else {
        formatted();
        whole();
        staged();
      }
    } catch (const std::exception& e) {
      st.problems.push_back(std::string("stage failed: ") + e.what());
      continue;
    } catch (const CommandError& e) {
      st.problems.push_back("execute: " + e.message);
      continue;
    }
    if (served != response) st.problems.push_back("handle_frame disagrees with the stages");

    decode.push_back(t_decode);
    parse.push_back(t_parse);
    format.push_back(t_format);
    encode.push_back(t_encode);
    st.named_total_s += t_decode + t_parse + t_execute + t_encode;
    st.handle_total_s += t_handle;
  }
  st.decode_s = median(decode);
  st.parse_s = median(parse);
  st.format_s = median(format);
  st.encode_s = median(encode);
  return st;
}

std::string expected_response(const std::string& frame) {
  ServiceRequest request;
  FloorplanTree tree;
  std::string problem;
  if (!decode_and_parse(frame, request, tree, problem)) return {};
  std::ostringstream out;
  try {
    execute_command(request.spec, tree, CommandEnv{}, out, nullptr);
  } catch (const CommandError&) {
    return {};
  }
  return build_ok_response(request.id_json, out.str(), "");
}

}  // namespace perfbench
