// Reliable, in-order message transport (simplified TCP).
//
// Go-back-N acknowledgment with slow start / AIMD congestion control, RTO
// with exponential backoff, fast retransmit on three duplicate ACKs, and
// EWMA RTT estimation with Karn's rule. Segments never span message
// boundaries, so a cumulative ACK always lands on a segment edge and the
// segment carrying a message's last byte also carries the reassembled
// payload pointer.
//
// KECho channels and the SmartPointer stream both run over this transport;
// its send-queue growth under congestion is the mechanism behind the
// latency blow-up in Figure 10 of the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "dproc/net/nic.hpp"
#include "dproc/net/packet.hpp"
#include "dproc/util/fifo.hpp"
#include "dproc/util/stats.hpp"
#include "dproc/util/time.hpp"

namespace dproc::net {

struct TcpConfig {
  std::uint32_t mss = 1448;
  double initial_cwnd = 2.0;       // segments
  double initial_ssthresh = 64.0;  // segments
  SimDuration min_rto = milliseconds(10.0);
  SimDuration max_rto = seconds(2.0);
};

struct TcpStats {
  std::uint64_t retransmissions = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_acked = 0;
  std::uint64_t wire_bytes_sent = 0;  // data + acks from this endpoint
  double srtt_us = 0.0;
  double cwnd_segments = 0.0;
  std::uint64_t in_flight_bytes = 0;
  std::uint64_t send_queue_bytes = 0;  // segmented-but-unsent + unsegmented
};

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  using MessageHandler = std::function<void(const MessagePtr&)>;
  using Ptr = std::shared_ptr<TcpConnection>;

  /// Active open. `on_established` fires after the handshake completes;
  /// sends issued earlier are queued and flushed then.
  static Ptr connect(Nic& nic, NodeId remote, Port remote_port,
                     TcpConfig config = {},
                     std::function<void()> on_established = {});

  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  void set_message_handler(MessageHandler handler) {
    on_message_ = std::move(handler);
  }

  /// Queues a message for reliable in-order delivery to the peer.
  void send(MessagePtr message);

  [[nodiscard]] bool established() const { return established_; }
  [[nodiscard]] NodeId local_node() const { return nic_ ? nic_->node() : 0; }
  [[nodiscard]] NodeId remote_node() const { return remote_; }
  [[nodiscard]] std::uint64_t flow_id() const { return flow_id_; }

  /// Snapshot of the connection counters NET_MON publishes.
  [[nodiscard]] TcpStats stats() const;

  /// Smoothed RTT; zero until the first sample.
  [[nodiscard]] SimDuration srtt() const { return microseconds(srtt_us_.value()); }

  /// Tears the connection down locally (no FIN exchange is modeled).
  void close();

  /// Called by the Nic's destructor: the NIC is going away while engine
  /// callbacks may still hold this connection alive. Severs the back
  /// reference so late destruction cannot touch freed memory.
  void detach_from_nic();

  /// Packet entry point, called by the owning Nic.
  void on_packet(const Packet& packet);

 private:
  friend class TcpListener;

  enum class Role { kClient, kServer };

  TcpConnection(Nic& nic, NodeId remote, Port remote_port, Port local_port,
                std::uint64_t flow_id, Role role, TcpConfig config);

  void start_handshake(std::function<void()> on_established);
  void become_established();

  struct Segment;
  /// The unacknowledged segment starting at byte `seq`, or null.
  Segment* find_segment(std::uint64_t seq);

  void try_transmit();
  void send_segment(Segment& seg);
  void send_ack();
  void on_data(const Packet& packet);
  void on_ack_packet(const Packet& packet);

  void arm_rto();
  void cancel_rto();
  void on_rto_expired();
  void note_rtt_sample(SimDuration sample);

  void emit(Packet packet);

  Nic* nic_;  // null after detach_from_nic()
  NodeId remote_;
  Port remote_port_;
  Port local_port_;
  std::uint64_t flow_id_;
  Role role_;
  TcpConfig config_;

  bool established_ = false;
  bool closed_ = false;
  std::function<void()> on_established_;
  MessageHandler on_message_;

  // --- sender state ---
  struct Segment {
    std::uint64_t seq = 0;  // first byte offset
    std::uint32_t length = 0;
    std::uint32_t transmit_count = 0;
    MessagePtr message_end;  // set when this segment carries a message tail
  };
  std::uint64_t snd_una_ = 0;   // oldest unacknowledged byte
  std::uint64_t snd_next_ = 0;  // first never-segmented byte
  // Go-back-N send cursor: next byte to (re)transmit. Rewound to snd_una_
  // on loss so every segment after the gap is resent, matching the
  // receiver's discard-out-of-order policy.
  std::uint64_t send_ptr_ = 0;
  // Recovery guard (NewReno-flavoured): dup-ack bursts that belong to one
  // loss event must not trigger repeated window collapses.
  std::uint64_t recover_ = 0;
  // Segmented-but-unacknowledged bytes: contiguous segments from snd_una_
  // to snd_next_, ordered by first byte.
  Fifo<Segment> unacked_;
  Fifo<MessagePtr> pending_messages_;
  std::uint64_t pending_bytes_ = 0;
  std::uint64_t head_offset_ = 0;  // bytes of head pending message segmented
  double cwnd_;
  double ssthresh_;
  int dup_acks_ = 0;
  sim::EventHandle rto_event_;
  SimDuration rto_;
  int syn_attempts_ = 0;

  // RTT probe (single outstanding, Karn-safe).
  bool probe_active_ = false;
  std::uint64_t probe_end_seq_ = 0;
  SimTime probe_sent_at_;
  Ewma srtt_us_{0.125};

  // --- receiver state ---
  std::uint64_t rcv_next_ = 0;

  TcpStats counters_;
};

/// Passive open: accepts connections on a port and hands each established
/// connection to `on_accept`.
class TcpListener {
 public:
  using AcceptHandler = std::function<void(TcpConnection::Ptr)>;

  TcpListener(Nic& nic, Port port, TcpConfig config, AcceptHandler on_accept);
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

 private:
  Nic& nic_;
  TcpConfig config_;
  AcceptHandler on_accept_;
  std::map<std::uint64_t, TcpConnection::Ptr> accepted_;  // keep-alive
};

}  // namespace dproc::net
