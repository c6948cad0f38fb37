// Resident fleet service: a localhost TCP listener that keeps one
// FleetMonitor alive across connections -- the run-forever refactor of the
// batch entry points (see docs/SERVICE.md for the protocol and tenant
// model).
//
// Threading model (docs/CONCURRENCY.md#service): one poll(2) loop, on the
// thread calling run() (or start()'s background thread), owns the listen
// socket, the wake pipe, every connection and the FleetMonitor. It reads
// each ready connection without blocking, reassembles frames in a
// per-connection buffer, and serves every complete frame in arrival order.
// The loop is therefore the fleet's single producer by construction, and
// per-region record order is each connection's send order -- so any
// interleaving of tenants yields the same per-region report bytes as
// ingest_file of the same records (test-enforced). Replies are written from
// the loop with a bounded send timeout (kReplyTimeoutSeconds), so a peer
// that stops reading is dropped instead of stalling every tenant.
//
// Shutdown (request_stop(), a kShutdown frame, or a signal handler calling
// request_stop(), which is async-signal-safe) ends the loop, closes every
// connection, drains all shards, and commits a final checkpoint -- so a
// restart with ServerConfig::resume continues bit-identically
// (chaos-tested, SIGKILL included).

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.h"
#include "core/pipeline.h"
#include "service/frame.h"

namespace sentinel::service {

/// How long a reply may block on a peer that does not read before the
/// connection is dropped (SO_SNDTIMEO on accepted sockets).
inline constexpr int kReplyTimeoutSeconds = 2;

/// The longest ServerConfig::checkpoint_interval_seconds the server takes.
inline constexpr double kMaxCheckpointIntervalSeconds = 1e9;

struct ServerConfig {
  /// Port to bind on 127.0.0.1; 0 = ephemeral (read the choice via port()).
  std::uint16_t port = 0;
  /// The resident fleet (threads, queue bounds, checkpoint_dir, cadence).
  core::FleetConfig fleet;
  /// Per-tenant region configuration: every region a HELLO binds is created
  /// from this one config, so all tenants run the same detection parameters
  /// (initial states included -- which is what makes a served region's
  /// report comparable against a batch run of the same trace).
  core::PipelineConfig region;
  /// Restore regions from fleet.checkpoint_dir's last committed epoch at
  /// HELLO time (serve --resume). The HELLO ack tells the client how many
  /// records the restored state already covers.
  bool resume = false;
  /// Commit incremental checkpoints this often; the loop wakes for it as a
  /// poll deadline (0 = record-cadence only via
  /// FleetConfig::checkpoint_every_records). Must be in
  /// [0, kMaxCheckpointIntervalSeconds].
  double checkpoint_interval_seconds = 0.0;
  /// Upper bound on records per kRecords frame (admission sanity check).
  std::size_t max_frame_records = 1u << 16;
};

class Server {
 public:
  /// Binds and listens; throws std::runtime_error when the socket cannot be
  /// set up (port in use, no loopback), and std::invalid_argument when
  /// checkpoint_interval_seconds is not in [0, kMaxCheckpointIntervalSeconds].
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral choice when cfg.port was 0).
  std::uint16_t port() const { return port_; }

  /// The poll loop; blocks until a shutdown is requested, then closes every
  /// connection, drains the fleet, and commits the final checkpoint.
  void run();

  /// run() on a background thread (tests, benches, the in-process chaos
  /// child). Pair with stop().
  void start();

  /// Request shutdown and, when start() was used, join the background
  /// thread. Safe to call more than once.
  void stop();

  /// Async-signal-safe shutdown request: sets the stop flag and pokes the
  /// loop's wake pipe. The loop's thread does the actual teardown.
  void request_stop();

  bool stopped() const { return stopped_.load(); }

  /// The resident fleet -- test/bench access; external callers must not
  /// touch the ingestion API while the loop runs.
  core::FleetMonitor& fleet() { return fleet_; }

 private:
  /// One accepted connection: its socket, the received bytes not yet
  /// decoded into a frame, and the tenant state HELLO binds.
  struct Conn {
    int fd = -1;
    std::vector<unsigned char> in;
    std::string region;  // empty until HELLO
    std::size_t dims = 0;
    std::uint64_t expected_seq = 0;
    bool health_reported = false;  // one unsolicited health event each
  };

  /// Read what `c`'s socket holds and serve every complete frame in its
  /// buffer, in arrival order; false when the connection ended (EOF, a read
  /// error, or a malformed frame).
  bool read_conn(Conn& c);
  void serve_frame(Conn& c, const Frame& f);
  void handle_hello(Conn& c, const Frame& f);
  void handle_records(Conn& c, const Frame& f);
  void handle_report(Conn& c, const Frame& f);
  void handle_metrics(int fd);
  void handle_health(int fd);

  ServerConfig cfg_;
  core::FleetMonitor fleet_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_r_ = -1;  // loop wake pipe (request_stop writes wake_w_)
  int wake_w_ = -1;
  std::vector<Conn> conns_;
  std::vector<unsigned char> rx_;  // recv buffer, reused
  Frame frame_;                    // decode target, reused
  /// RECORDS decode target (decode_records). It only grows, so the records
  /// of a full frame keep their attribute storage across shorter frames.
  std::vector<SensorRecord> records_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopped_{false};

  std::thread run_thread_;  // only when start() was used
};

}  // namespace sentinel::service
