// Windowed, ack-clocked server→agent transport with loss, retransmit, flow
// control and digest-keyed repair (docs/backup_wire.md).
//
// This is the backup stream's only wire. The server ships one extent-
// coalesced ExtentBatch per drained chunking buffer: duplicate-pointer runs
// collapse to {first, count} extent records and unique payloads ride
// concatenated in the same frame, so a duplicate-heavy snapshot costs a
// handful of messages instead of one per chunk ("A Moveable Beast": what
// crosses the boundary, and at what granularity, is the design lever). The
// stream must survive drops, reordering, duplication, multi-millisecond
// delay spikes and agents that apply slower than the server ships, so the
// frames ride a real ARQ protocol, simulated in deterministic virtual time:
//
//   * every control/data frame carries a sequence number; the receiver
//     reassembles in order through a bounded out-of-order buffer and
//     acknowledges with a cumulative ack + selective-ack list + its
//     advertised free-buffer window;
//   * the sender keeps at most window_frames (and at most the agent's
//     advertised window) outstanding, retransmits on RTO with exponential
//     backoff, fast-retransmits on triple duplicate acks, and probes a
//     zero window instead of spinning;
//   * a frame whose payload keeps getting lost is eventually *stripped*:
//     the metadata (digests, extents, sizes) retransmits without the
//     payload bytes, the recipe completes, and the missing chunks move to a
//     digest-keyed repair protocol — the agent re-requests them from a
//     bounded pending-repair table and the server serves the bytes from the
//     image it is shipping (the firedancer repair-tile shape: bounded
//     needed-item tables, selective re-request by hash);
//   * an injectable FaultModel (seeded SplitMix64) decides per transmission
//     whether to drop, duplicate, delay or jitter-reorder the frame, and
//     whether the agent stalls while applying — so the whole recovery
//     machinery is exercised reproducibly and delivered images stay
//     bit-identical to the lossless path under any schedule.
//
// Everything runs inside virtual time like the rest of the repo: the
// transport is an event-driven simulation (transmissions serialize on
// per-direction busy-until clocks, arrivals/timeouts pop from an event
// queue ordered by (time, id)), so makespans are exact and reproducible.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "backup/agent.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "dedup/digest.h"
#include "obs/trace.h"

namespace shredder::backup {

// Modelled framing costs of the backup link. Bandwidth matches the §7.3
// 10 GbE; the message constants model a 2012-era kernel network stack
// (per-message handling dominated by syscall + interrupt + protocol work).
struct LinkCostModel {
  double bw = 1.25e9;          // payload bandwidth, B/s (10 GbE)
  double msg_s = 2.0e-6;       // flat per-wire-message handling, both ends
  std::size_t msg_header_bytes = 64;     // framing bytes per wire message
  std::size_t extent_record_bytes = 16;  // bytes per extent record
};

// Cumulative wire telemetry.
struct LinkStats {
  std::uint64_t messages = 0;       // wire messages shipped (incl. control)
  std::uint64_t extents = 0;        // extent records inside batch messages
  std::uint64_t chunks = 0;         // chunk entries shipped (pointers + data)
  std::uint64_t wire_bytes = 0;     // total link bytes incl. framing
  std::uint64_t payload_bytes = 0;  // unique chunk payload bytes
  double virtual_seconds = 0;       // modelled link-stage time
};

// Per-transmission fault probabilities, drawn from one seeded SplitMix64 so
// every schedule is reproducible. Applied to both directions (data/repair
// frames server→agent, acks/repair-requests agent→server).
struct FaultModel {
  double drop = 0;       // transmission lost entirely
  double duplicate = 0;  // delivered twice (second copy slightly later)
  double reorder = 0;    // arrival jittered by up to reorder_jitter_s
  double delay = 0;      // arrival late by delay_s (a routing hiccup)
  double stall = 0;      // agent stalls for stall_s while applying a frame
  double reorder_jitter_s = 250e-6;
  double delay_s = 2e-3;
  double stall_s = 5e-3;
  std::uint64_t seed = 1;

  bool any() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || delay > 0 || stall > 0;
  }
};

struct TransportConfig {
  // Framing costs charged once per original frame into TransportStats::link.
  LinkCostModel link;
  double latency_s = 10e-6;  // one-way propagation (LAN default)
  // Frames larger than this are segmented at chunk boundaries: content bytes
  // (digests + extent records + size records + payload) per data frame.
  std::size_t max_frame_bytes = 256 * 1024;
  std::size_t window_frames = 32;  // sender's max outstanding frames
  std::size_t recv_frames = 128;   // agent receive buffers (advertised window)
  std::size_t reorder_slots = 64;  // out-of-order reassembly bound
  // Agent apply bandwidth, B/s; 0 = infinitely fast (applies never occupy
  // receive buffers, the advertised window never closes from apply lag).
  double agent_apply_bw = 0;
  double rto_s = 1e-3;        // initial retransmission timeout
  double rto_backoff = 2.0;   // per-retransmit multiplier
  double rto_max_s = 64e-3;   // backoff cap
  // After this many payload retransmissions of one frame the payload is
  // stripped and the missing chunks shift to the repair path (only when a
  // repair source is wired up; otherwise retransmission continues).
  std::size_t max_payload_retx = 8;
  std::size_t repair_window = 64;  // max digests awaiting repair in flight
  std::size_t repair_batch = 16;   // digests per repair-request frame
  double repair_rto_s = 2e-3;      // re-request timeout (same backoff/cap)
  // Health thresholds: an agent is "degraded" when the retransmit share of
  // data-plane transmissions or the window-stalled share of the makespan
  // crosses these.
  double degraded_retransmit_rate = 0.05;
  double degraded_stall_fraction = 0.25;
  FaultModel faults;
  // Optional virtual-time tracer (borrowed; must outlive the transport).
  // When set, every wire transmission becomes a span on the direction's
  // track ("transport/<label>/tx" server→agent, ".../rx" agent→server) named
  // by frame kind (data/retx/probe/repair_data/ack/repair_req), dropped
  // transmissions become instants, agent applies span "agent/<label>", and
  // window-stall intervals span ".../stall". Null => no tracing, zero cost.
  obs::Tracer* tracer = nullptr;
  std::string trace_label = "link";  // distinguishes tenants on shared tracers
};

// Cumulative transport telemetry. `link` counts each *original* frame once
// under the LinkCostModel (no double-charge on the retransmit path), so a
// lossless run's link stats are the closed-form framing sum; everything
// physical — retransmissions, acks, repair traffic, stall time — is
// accounted beside it.
struct TransportStats {
  LinkStats link;  // logical stream: originals only, framing-model costs

  // Data-plane transmissions server→agent:
  //   frames_sent == link.messages + retransmits + repair_frames + probes.
  std::uint64_t frames_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t retransmit_wire_bytes = 0;
  std::uint64_t fast_retransmits = 0;  // triggered by triple duplicate acks
  std::uint64_t rto_fires = 0;
  std::uint64_t probes = 0;  // zero-window persist probes

  // Ack plane (agent→server).
  std::uint64_t acks_sent = 0;
  std::uint64_t ack_wire_bytes = 0;

  // Fault-model outcomes actually drawn (both directions).
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t frames_delayed = 0;
  std::uint64_t frames_reordered = 0;

  // Receiver reassembly.
  std::uint64_t out_of_order_frames = 0;  // parked awaiting the gap
  std::uint64_t reassembly_drops = 0;     // arrivals with no buffer to park in
  std::uint64_t duplicate_frames = 0;     // arrivals at/below the cum ack

  // Flow control and agent health.
  std::uint64_t window_stalls = 0;  // sender entered a window-blocked state
  double window_stall_seconds = 0;  // time the sender sat window-blocked
  std::uint64_t agent_stalls = 0;   // fault-injected apply stalls
  double agent_stall_seconds = 0;

  // Repair protocol.
  std::uint64_t payloads_stripped = 0;        // frames shipped metadata-only
  std::uint64_t repair_requests = 0;          // request frames agent→server
  std::uint64_t repair_digests_requested = 0; // digests requested incl retries
  std::uint64_t repair_retries = 0;           // re-requests after timeout
  std::uint64_t repair_frames = 0;            // repair-data frames served
  std::uint64_t repair_payload_bytes = 0;

  double virtual_seconds = 0;  // makespan: start of send to fully delivered
  double goodput_bps = 0;      // delivered payload bits / makespan
  bool degraded = false;       // crossed a degraded-health threshold
};

// Serves the payload for a repaired chunk. BackupServer binds it to the
// image in flight: a Transport ships one image and flush() finishes every
// repair, so the image holds every digest the agent can re-request.
// Returning nullopt is a hard protocol error (the server advertised a
// digest it cannot produce).
using RepairSource =
    std::function<std::optional<ByteVec>(const dedup::ChunkDigest&)>;

// One logical connection server→agent shipping one or more images. The
// caller drives the sender half (begin_image / send_batch / end_image /
// flush); the receiver half — reassembly, acks, the agent upcalls, the
// repair requester — runs inside the same virtual-time event loop.
class Transport {
 public:
  Transport(BackupAgent& agent, TransportConfig config,
            RepairSource repair = nullptr);

  // Enqueues the open-image control frame (sequenced; delivery idempotent at
  // the agent, so a duplicated or retransmitted begin is harmless).
  void begin_image(const std::string& image_id);

  // Segments the batch into data frames at chunk boundaries (max_frame_bytes
  // of content each) and enqueues them. Pumps the event loop until the
  // sender's spool drains below the send window — the caller is
  // backpressured exactly like the agent backpressures the server.
  void send_batch(const std::string& image_id,
                  const BackupAgent::ExtentBatch& batch);

  // Enqueues the end-of-image control frame carrying the total chunk count;
  // the agent seals the recipe on delivery and detects truncation.
  void end_image(const std::string& image_id);

  // Runs the event loop to completion: every frame delivered and acked,
  // every stripped payload repaired, the agent idle. Finalizes makespan,
  // goodput and the degraded flag.
  void flush();

  const TransportStats& stats() const noexcept { return stats_; }

 private:
  struct Frame {
    enum class Kind { kBegin, kData, kEnd, kProbe };
    Kind kind = Kind::kData;
    std::uint64_t seq = 0;  // kProbe is unsequenced
    std::string image_id;
    BackupAgent::ExtentBatch batch;      // kData
    std::uint64_t expected_chunks = 0;   // kEnd
    bool stripped = false;               // kData with payload removed
    std::size_t content_bytes = 0;       // wire bytes beyond the header
  };
  using FramePtr = std::shared_ptr<const Frame>;

  struct Ack {
    std::uint64_t cum = 0;  // next sequence the receiver expects
    std::vector<std::uint64_t> sacks;
    std::size_t window = 0;  // advertised free receive buffers
  };

  struct Outstanding {
    FramePtr frame;
    double expires = 0;
    double rto = 0;
    std::size_t retx = 0;
    bool sacked = false;
    // One fast retransmit per hole (NewReno-style): while the repair is in
    // flight the receiver keeps emitting sack-bearing dup acks, and without
    // this latch every third one would re-fire the same retransmission.
    bool fast_done = false;
  };

  struct Event {
    enum class Kind {
      kFrameArrive,       // data-plane frame at the agent
      kAckArrive,         // ack at the server
      kRepairReqArrive,   // digest re-request at the server
      kRepairDataArrive,  // repaired payloads at the agent
      kApplyDone,         // agent finished applying one frame
    };
    double t = 0;
    std::uint64_t id = 0;  // tie-break: schedule order
    Kind kind = Kind::kFrameArrive;
    FramePtr frame;
    Ack ack;
    std::vector<dedup::ChunkDigest> digests;
    std::vector<std::pair<dedup::ChunkDigest, ByteVec>> repairs;
    bool operator>(const Event& o) const {
      return t != o.t ? t > o.t : id > o.id;
    }
  };

  struct PendingRepair {
    double expires = 0;
    double rto = 0;
    std::size_t retries = 0;
  };

  // --- sender side ---
  void enqueue(Frame frame);
  bool can_send() const;
  void transmit_next();
  void transmit(const FramePtr& frame, bool retransmit);
  void handle_ack(const Ack& ack);
  void retransmit_frame(Outstanding& out);
  void fire_probe();
  void serve_repair(const std::vector<dedup::ChunkDigest>& digests);

  // --- receiver (agent) side ---
  void on_frame(const FramePtr& frame);
  void deliver(const FramePtr& frame);
  void send_ack();
  std::size_t advertised_window() const;
  void queue_repair(std::vector<dedup::ChunkDigest> digests);
  void send_repair_requests();
  void on_repair_data(
      const std::vector<std::pair<dedup::ChunkDigest, ByteVec>>& repairs);

  // --- wire + event machinery ---
  // Transmits `content` bytes in `dir` (0 = server→agent, 1 = agent→server),
  // drawing faults, and schedules `make_event(arrival_time)` per delivered
  // copy. Returns the transmission finish time on the local clock. `what`
  // names the transmission's trace span (data/retx/ack/...).
  double wire_send(int dir, std::size_t content, const char* what,
                   const std::function<Event(double)>& make_event);
  void schedule(Event ev);
  double next_timeout() const;
  void fire_timeouts();
  void pump(std::size_t target_backlog);
  bool idle() const;

  BackupAgent& agent_;
  TransportConfig cfg_;
  RepairSource repair_;
  TransportStats stats_;
  SplitMix64 rng_;

  // Trace track names, resolved once from trace_label (empty when untraced).
  std::string track_tx_;
  std::string track_rx_;
  std::string track_agent_;
  std::string track_stall_;

  // Virtual clocks.
  double now_ = 0;
  double tx_busy_until_ = 0;  // server→agent wire serialization
  double rx_busy_until_ = 0;  // agent→server wire serialization
  double apply_busy_until_ = 0;

  // Event queue ordered by (time, schedule id).
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::uint64_t next_event_id_ = 0;

  // Sender state.
  std::deque<FramePtr> backlog_;  // sequenced frames not yet transmitted
  std::map<std::uint64_t, Outstanding> unacked_;
  std::uint64_t next_seq_ = 0;
  std::size_t peer_window_;
  std::uint64_t max_cum_seen_ = 0;
  std::size_t dup_acks_ = 0;
  double probe_deadline_ = 0;  // active while zero-window probing
  double probe_rto_ = 0;
  bool probing_ = false;
  bool stalled_ = false;  // currently window-blocked (stall accounting)
  std::unordered_map<std::string, std::uint64_t> image_chunks_;

  // Receiver state.
  std::uint64_t cum_ = 0;  // next expected sequence
  std::map<std::uint64_t, FramePtr> parked_;
  std::size_t apply_outstanding_ = 0;
  bool window_was_zero_ = false;

  // Agent-side repair requester.
  std::deque<dedup::ChunkDigest> repair_backlog_;
  std::unordered_map<dedup::ChunkDigest, PendingRepair, dedup::ChunkDigestHash>
      repair_inflight_;
};

}  // namespace shredder::backup
