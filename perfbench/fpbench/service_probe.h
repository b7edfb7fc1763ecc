// Driving fpoptd from outside: an in-process serve_unix on a socket in
// the checkout, an open-loop load generator, `metrics`-verb snapshots,
// and direct timing of the request path's public stages.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "floorplan/tree.h"
#include "service/service.h"
#include "telemetry/log.h"

namespace perfbench {

/// One optimize request frame for `tree`; `options_json` is the body of
/// the "options" object (may be empty).
[[nodiscard]] std::string optimize_frame(std::uint64_t id, const std::string& topology,
                                         const std::string& library,
                                         const std::string& options_json, int priority);

/// The same frame around its library: head + json_quote(library) + tail.
/// Frames on one module library can then share the library's text.
struct FrameAround {
  std::string head;
  std::string tail;
};
[[nodiscard]] FrameAround optimize_frame_around(std::uint64_t id, const std::string& topology,
                                                const std::string& options_json, int priority);

/// A frame without its trailing newline, as consecutive pieces.
using FramePieces = std::array<std::string_view, 3>;

[[nodiscard]] std::string joined(const FramePieces& pieces);

/// fpoptd on a Unix socket, served by serve_unix on a background thread,
/// with an info-level JSONL log in `log_path`. The destructor shuts it
/// down, joins it and deletes the log.
class LiveServer {
 public:
  LiveServer(fpopt::ServiceConfig config, std::string socket_path, const std::string& log_path);
  ~LiveServer();
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }

 private:
  std::string socket_path_;
  std::string log_path_;
  std::unique_ptr<std::ofstream> log_file_;
  std::unique_ptr<fpopt::telemetry::LogSink> log_;
  std::unique_ptr<fpopt::Service> service_;
  std::thread thread_;
};

/// One planned request of an open-loop schedule.
struct Planned {
  FramePieces frame;  ///< owned by the caller
  double due_s = 0;   ///< offset from the schedule's start
  unsigned conn = 0;  ///< which connection carries it
  bool keep_response = false;
};

/// What happened to one planned request. Times are offsets from the
/// schedule's start; `received_s` < 0 means no response arrived.
struct Outcome {
  double issued_s = 0;    ///< when the generator queued the frame (lag = issued - due)
  double received_s = -1;
  bool ok = false;        ///< response status "ok"
  std::string response;   ///< kept only when Planned::keep_response
};

/// Open-loop client: `conns` connections, one generator thread that sends
/// every frame at its due time whether or not earlier ones were answered,
/// and reads responses as they come (each connection answers in order).
/// Gives up `grace_s` after the last due time.
[[nodiscard]] std::vector<Outcome> run_open_loop(const std::string& socket_path, unsigned conns,
                                                 const std::vector<Planned>& plan,
                                                 double grace_s);

/// One request/response round trip on a fresh connection.
[[nodiscard]] std::string round_trip(const std::string& socket_path, const std::string& frame);

/// The `metrics` verb's counters, summed over label series.
struct MetricsSnapshot {
  double requests = 0;
  double request_sum_s = 0;
  double execute_count = 0;
  double execute_sum_s = 0;
  double queue_wait_count = 0;
  double queue_wait_sum_s = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_insertions = 0;
  double cache_evictions = 0;
  double cache_peak_bytes = 0;
  double log_lines = 0;
};

[[nodiscard]] MetricsSnapshot snapshot_metrics(const std::string& socket_path);

/// Per-stage wall times of the request path, taken by calling each public
/// stage directly on the same frames: decode_request, parse_module_library
/// + parse_floorplan, execute_command and build_ok_response, plus
/// Service::handle_frame on an idle local service as the whole. Medians
/// over frames, in seconds, unless noted.
struct StageTimes {
  double decode_s = 0;
  double parse_s = 0;
  double encode_s = 0;
  double format_s = 0;  ///< execute_command minus its reported optimizer time
  double named_total_s = 0;   ///< decode + parse + execute + encode, summed over frames
  double handle_total_s = 0;  ///< handle_frame, summed over frames
  std::vector<std::string> problems;  ///< frames that failed a stage
};

[[nodiscard]] StageTimes time_stages(const std::vector<std::string>& frames);

/// The response fpoptd must give for `frame`, computed in-process through
/// execute_command with no shared resources. Empty when the frame fails.
[[nodiscard]] std::string expected_response(const std::string& frame);

}  // namespace perfbench
