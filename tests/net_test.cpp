#include <gtest/gtest.h>

#include <algorithm>

#include "dproc/core/cluster.hpp"
#include "dproc/core/monitors.hpp"
#include "dproc/host/host.hpp"
#include "dproc/net/fabric.hpp"
#include "dproc/net/nic.hpp"
#include "dproc/net/tcp.hpp"
#include "dproc/net/wire.hpp"

namespace dproc::net {
namespace {

// --- wire codec -----------------------------------------------------------

TEST(Wire, RoundTripsScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");

  ByteReader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, TruncatedReadFailsSafely) {
  ByteWriter w;
  w.u32(7);
  ByteReader r{w.bytes()};
  r.u32();
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Wire, CorruptStringLengthDetected) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes, provides none
  ByteReader r{w.bytes()};
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

// --- link + fabric ----------------------------------------------------------

class FabricTest : public ::testing::Test {
 protected:
  sim::Engine engine;
  Fabric fabric{engine};
};

TEST_F(FabricTest, StarDeliversWithSerializationAndPropagation) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  fabric.build_star({a, b}, LinkConfig{});

  SimTime delivered;
  fabric.set_delivery_handler(b, [&](const Packet&) { delivered = engine.now(); });

  Packet p;
  p.src = a;
  p.dst = b;
  p.payload_bytes = 942;  // 1000 wire bytes with the 58-byte framing
  fabric.send(p);
  engine.run();

  // Two hops at 100 Mbps: 2 x (1000*8/100e6 s serialize + 25 us propagate).
  EXPECT_NEAR((delivered - SimTime::zero()).us(), 2 * (80.0 + 25.0), 1e-6);
}

TEST_F(FabricTest, BandwidthBoundsThroughput) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  fabric.build_star({a, b}, LinkConfig{});

  std::uint64_t received = 0;
  fabric.set_delivery_handler(b, [&](const Packet& p) {
    received += p.wire_bytes();
  });
  // Offer ~2.4x the line rate for one second (20k pkt/s x 1500 B).
  for (int i = 0; i < 20'000; ++i) {
    engine.schedule_at(SimTime{i * 50'000}, [&] {
      Packet p;
      p.src = a;
      p.dst = b;
      p.payload_bytes = 1442;
      fabric.send(p);
    });
  }
  engine.run_until(SimTime::zero() + seconds(1.0));
  // 100 Mbps => at most 12.5 MB/s of wire bytes (minus buffer warmup slack).
  EXPECT_LE(received, 12'500'000u);
  EXPECT_GE(received, 11'000'000u);
}

TEST_F(FabricTest, TailDropWhenBufferFull) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  LinkConfig small;
  small.buffer_bytes = 4000;
  fabric.build_star({a, b}, small);

  int dropped = 0, delivered = 0;
  fabric.set_delivery_handler(b, [&](const Packet&) { ++delivered; });
  fabric.set_trace_hook([&](Fabric::TraceEvent event, DropCause,
                            const Packet&, SimTime) {
    if (event == Fabric::TraceEvent::kDrop) ++dropped;
  });
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.payload_bytes = 1442;
    fabric.send(p);
  }
  engine.run();
  EXPECT_GT(dropped, 0);
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(dropped + delivered, 10);
}

TEST_F(FabricTest, TailDropTracesDropExactlyOnceAndStatsMatch) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  LinkConfig small;
  small.buffer_bytes = 4000;
  const LinkId ab = fabric.add_link(small);
  fabric.set_route(a, b, {ab});

  constexpr int kPackets = 10;
  constexpr std::uint32_t kPayload = 1442;
  std::vector<int> drop_calls(kPackets, 0);
  int delivered = 0;
  fabric.set_delivery_handler(b, [&](const Packet&) { ++delivered; });
  fabric.set_trace_hook([&](Fabric::TraceEvent event, DropCause,
                            const Packet& dropped, SimTime) {
    if (event == Fabric::TraceEvent::kDrop) ++drop_calls[dropped.seq];
  });
  for (int i = 0; i < kPackets; ++i) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.seq = static_cast<std::uint64_t>(i);
    p.payload_bytes = kPayload;
    fabric.send(p);
  }
  engine.run();

  int total_drops = 0;
  for (int calls : drop_calls) {
    EXPECT_LE(calls, 1) << "a drop must be traced at most once per packet";
    total_drops += calls;
  }
  EXPECT_GT(total_drops, 0);
  EXPECT_EQ(total_drops + delivered, kPackets);
  const LinkStats& stats = fabric.link(ab).stats();
  EXPECT_EQ(stats.packets_dropped, static_cast<std::uint64_t>(total_drops));
  EXPECT_EQ(stats.bytes_dropped,
            static_cast<std::uint64_t>(total_drops) *
                (kPayload + Packet::kHeaderBytes));
  EXPECT_EQ(stats.packets_sent, static_cast<std::uint64_t>(delivered));
}

TEST_F(FabricTest, MultiHopDropEndsTraversal) {
  // a -> b over two links in sequence; the first is the bottleneck. A
  // packet dropped at hop 0 must never reach the second link.
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  LinkConfig tiny;
  tiny.buffer_bytes = 4000;
  const LinkId first = fabric.add_link(tiny);
  const LinkId second = fabric.add_link(LinkConfig{});
  fabric.set_route(a, b, {first, second});

  int dropped = 0, delivered = 0;
  fabric.set_delivery_handler(b, [&](const Packet&) { ++delivered; });
  fabric.set_trace_hook([&](Fabric::TraceEvent event, DropCause,
                            const Packet&, SimTime) {
    if (event == Fabric::TraceEvent::kDrop) ++dropped;
  });
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.payload_bytes = 1442;
    fabric.send(p);
  }
  engine.run();

  EXPECT_GT(dropped, 0);
  EXPECT_EQ(dropped + delivered, 10);
  EXPECT_EQ(fabric.link(first).stats().packets_dropped,
            static_cast<std::uint64_t>(dropped));
  // The downstream link only ever saw the survivors.
  EXPECT_EQ(fabric.link(second).stats().packets_sent,
            static_cast<std::uint64_t>(delivered));
  EXPECT_EQ(fabric.link(second).stats().packets_dropped, 0u);
}

TEST_F(FabricTest, DownLinkDropsEverythingUntilHealed) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  const LinkId ab = fabric.add_link(LinkConfig{});
  fabric.set_route(a, b, {ab});

  int dropped = 0, delivered = 0;
  fabric.set_delivery_handler(b, [&](const Packet&) { ++delivered; });
  fabric.set_trace_hook([&](Fabric::TraceEvent event, DropCause,
                            const Packet&, SimTime) {
    if (event == Fabric::TraceEvent::kDrop) ++dropped;
  });
  auto send_one = [&] {
    Packet p;
    p.src = a;
    p.dst = b;
    p.payload_bytes = 100;
    fabric.send(p);
  };

  fabric.set_link_down(ab, true);
  send_one();
  engine.run();
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(fabric.link(ab).stats().packets_dropped, 1u);

  fabric.set_link_down(ab, false);
  send_one();
  engine.run();
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(delivered, 1);
}

TEST_F(FabricTest, LossBurstIsSeededAndDeterministic) {
  auto run_pattern = [](std::uint64_t seed) {
    sim::Engine engine;
    Fabric fabric{engine};
    const NodeId a = fabric.add_node("a");
    const NodeId b = fabric.add_node("b");
    const LinkId ab = fabric.add_link(LinkConfig{});
    fabric.set_route(a, b, {ab});
    fabric.set_link_loss(ab, 0.5, seed);
    std::vector<bool> arrived(50, false);
    fabric.set_delivery_handler(
        b, [&](const Packet& p) { arrived[p.seq] = true; });
    for (int i = 0; i < 50; ++i) {
      Packet p;
      p.src = a;
      p.dst = b;
      p.seq = static_cast<std::uint64_t>(i);
      p.payload_bytes = 100;
      fabric.send(p);
      engine.run();
    }
    return arrived;
  };

  const auto first = run_pattern(0xfeed);
  const auto second = run_pattern(0xfeed);
  EXPECT_EQ(first, second) << "same seed must reproduce the drop pattern";
  const auto lost = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), false));
  EXPECT_GT(lost, 10u);
  EXPECT_LT(lost, 40u);
  EXPECT_NE(first, run_pattern(0xbeef)) << "different seed, different burst";
}

TEST_F(FabricTest, LoopbackNeedsNoRoute) {
  const NodeId a = fabric.add_node("a");
  bool delivered = false;
  fabric.set_delivery_handler(a, [&](const Packet&) { delivered = true; });
  Packet p;
  p.src = a;
  p.dst = a;
  fabric.send(p);
  engine.run();
  EXPECT_TRUE(delivered);
}

TEST_F(FabricTest, MissingRouteThrows) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  Packet p;
  p.src = a;
  p.dst = b;
  EXPECT_THROW(fabric.send(p), std::logic_error);
}

TEST_F(FabricTest, SharedLinkContention) {
  // a->c and b->c share c's downlink; combined goodput is capped by it.
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  const NodeId c = fabric.add_node("c");
  fabric.build_star({a, b, c}, LinkConfig{});

  std::uint64_t received = 0;
  fabric.set_delivery_handler(c, [&](const Packet& p) {
    received += p.wire_bytes();
  });
  for (int i = 0; i < 1700; ++i) {
    engine.schedule_at(SimTime{i * 500'000}, [&, i] {
      for (NodeId src : {a, b}) {
        Packet p;
        p.src = src;
        p.dst = c;
        p.payload_bytes = 1442;
        fabric.send(p);
      }
    });
  }
  engine.run_until(SimTime::zero() + seconds(1.0));
  EXPECT_LE(received, 12'500'000u);
}

TEST_F(FabricTest, TraceHookSeesSendDeliverAndDrop) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  LinkConfig small;
  small.buffer_bytes = 3000;
  fabric.build_star({a, b}, small);
  fabric.set_delivery_handler(b, [](const Packet&) {});

  int sends = 0, delivers = 0, drops = 0;
  SimTime last_event_time;
  fabric.set_trace_hook([&](Fabric::TraceEvent event, DropCause cause,
                            const Packet& p, SimTime at) {
    EXPECT_EQ(p.src, a);
    EXPECT_GE(at, last_event_time);
    last_event_time = at;
    switch (event) {
      case Fabric::TraceEvent::kSend: ++sends; break;
      case Fabric::TraceEvent::kDeliver: ++delivers; break;
      case Fabric::TraceEvent::kDrop: ++drops; break;
    }
    if (event == Fabric::TraceEvent::kDrop) {
      EXPECT_EQ(cause, DropCause::kBufferFull);
    } else {
      EXPECT_EQ(cause, DropCause::kNone);
    }
  });

  for (int i = 0; i < 6; ++i) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.payload_bytes = 1400;
    fabric.send(p);
  }
  engine.run();
  EXPECT_EQ(sends, 6);
  EXPECT_GT(drops, 0);        // the tiny buffer overflowed
  EXPECT_GT(delivers, 0);
  EXPECT_EQ(delivers + drops, sends);  // every packet resolved exactly once
}

TEST_F(FabricTest, TraceHookSeesNodeDownDrops) {
  const NodeId a = fabric.add_node("a");
  const NodeId b = fabric.add_node("b");
  fabric.build_star({a, b}, LinkConfig{});
  int drops = 0;
  fabric.set_trace_hook([&](Fabric::TraceEvent event, DropCause cause,
                            const Packet&, SimTime) {
    if (event == Fabric::TraceEvent::kDrop) {
      ++drops;
      EXPECT_EQ(cause, DropCause::kNodeDown);
    }
  });
  fabric.set_node_down(a, true);
  Packet p;
  p.src = a;
  p.dst = b;
  fabric.send(p);
  engine.run();
  EXPECT_EQ(drops, 1);
}

// --- datagram service ---------------------------------------------------

class NicTest : public ::testing::Test {
 protected:
  NicTest() {
    a = fabric.add_node("a");
    b = fabric.add_node("b");
    fabric.build_star({a, b}, LinkConfig{});
    nic_a = std::make_unique<Nic>(fabric, a);
    nic_b = std::make_unique<Nic>(fabric, b);
  }

  sim::Engine engine;
  Fabric fabric{engine};
  NodeId a{}, b{};
  std::unique_ptr<Nic> nic_a, nic_b;
};

TEST_F(NicTest, DatagramDelivered) {
  std::string got;
  nic_b->bind_datagram(9, [&](NodeId from, Port, const MessagePtr& m) {
    EXPECT_EQ(from, a);
    got.assign(m->header.begin(), m->header.end());
  });
  ByteWriter w;
  w.str("ping");
  nic_a->send_datagram(b, 9, make_message(w.take()));
  engine.run();
  EXPECT_NE(got.find("ping"), std::string::npos);
  EXPECT_EQ(nic_b->stats().datagrams_received, 1u);
}

TEST_F(NicTest, LargeDatagramFragmentsAndReassembles) {
  std::uint64_t got = 0;
  nic_b->bind_datagram(9, [&](NodeId, Port, const MessagePtr& m) {
    got = m->size();
  });
  nic_a->send_datagram(b, 9, make_message({}, 50'000));
  engine.run();
  EXPECT_EQ(got, 50'000u);
}

TEST_F(NicTest, UnboundPortSilentlyDrops) {
  nic_a->send_datagram(b, 1234, make_message({}, 10));
  engine.run();  // no crash; counted as received but unhandled
  EXPECT_EQ(nic_b->stats().datagrams_received, 1u);
}

TEST_F(NicTest, LossDetectedViaSequenceGap) {
  // Tiny buffer: a burst overflows and datagrams vanish.
  sim::Engine eng;
  Fabric fab{eng};
  const NodeId x = fab.add_node("x");
  const NodeId y = fab.add_node("y");
  LinkConfig small;
  small.buffer_bytes = 3000;
  fab.build_star({x, y}, small);
  Nic nx{fab, x}, ny{fab, y};
  int handled = 0;
  ny.bind_datagram(5, [&](NodeId, Port, const MessagePtr&) { ++handled; });
  // Bursts overflow the buffer; the gaps between bursts let survivors
  // through, so the receiver can observe the sequence gaps.
  for (int burst = 0; burst < 10; ++burst) {
    eng.schedule_at(SimTime{burst * 5'000'000}, [&] {
      for (int i = 0; i < 4; ++i) {
        nx.send_datagram(y, 5, make_message({}, 1400), 5);
      }
    });
  }
  eng.run();
  EXPECT_EQ(nx.stats().datagrams_sent, 40u);
  EXPECT_GT(ny.stats().datagrams_lost, 0u);
  const DatagramFlowStats* flow = ny.datagram_flow(x, 5);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->received, static_cast<std::uint64_t>(handled));
  // FIFO fabric: every datagram before the last delivered one is accounted
  // as either received or lost (a dropped tail is undetectable).
  EXPECT_LE(flow->received + flow->lost, 40u);
  EXPECT_GE(flow->received + flow->lost, 30u);
}

TEST_F(NicTest, EndToEndDelayMeasured) {
  nic_b->bind_datagram(9, [](NodeId, Port, const MessagePtr&) {});
  nic_a->send_datagram(b, 9, make_message({}, 942 - 8), 9);
  engine.run();
  const DatagramFlowStats* flow = nic_b->datagram_flow(a, 9);
  ASSERT_NE(flow, nullptr);
  EXPECT_GT(flow->delay_us.value(), 100.0);  // > 2 hops' propagation
  EXPECT_LT(flow->delay_us.value(), 1000.0);
}

// --- tcp ------------------------------------------------------------------

class TcpTest : public NicTest {};

TEST_F(TcpTest, ConnectEstablishesBothEnds) {
  TcpConnection::Ptr server_side;
  TcpListener listener{*nic_b, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) { server_side = conn; }};
  bool established = false;
  auto client = TcpConnection::connect(*nic_a, b, 80, TcpConfig{},
                                       [&] { established = true; });
  engine.run();
  EXPECT_TRUE(established);
  ASSERT_NE(server_side, nullptr);
  EXPECT_TRUE(client->established());
  EXPECT_EQ(server_side->remote_node(), a);
}

TEST_F(TcpTest, SmallMessageRoundTrip) {
  TcpConnection::Ptr server_side;
  TcpListener listener{*nic_b, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) {
                         server_side = conn;
                         // Capture a raw pointer: a shared_ptr capture stored
                         // inside the connection itself would cycle and leak.
                         conn->set_message_handler(
                             [c = conn.get()](const MessagePtr& m) {
                               // Echo back.
                               c->send(m);
                             });
                       }};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  std::uint64_t echoed = 0;
  client->set_message_handler([&](const MessagePtr& m) { echoed = m->size(); });
  ByteWriter w;
  w.str("hello world");
  client->send(make_message(w.take()));
  engine.run();
  EXPECT_GT(echoed, 0u);
  EXPECT_EQ(client->stats().messages_delivered, 1u);
}

TEST_F(TcpTest, MultiSegmentMessageDeliveredOnceInOrder) {
  std::vector<std::uint64_t> sizes;
  TcpListener listener{*nic_b, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) {
                         conn->set_message_handler([&](const MessagePtr& m) {
                           sizes.push_back(m->size());
                         });
                       }};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  client->send(make_message({}, 1'000'000));
  client->send(make_message({}, 10));
  client->send(make_message({}, 500'000));
  engine.run();
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{1'000'000, 10, 500'000}));
}

TEST_F(TcpTest, SendBeforeEstablishedIsFlushed) {
  std::uint64_t got = 0;
  TcpListener listener{*nic_b, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) {
                         conn->set_message_handler(
                             [&](const MessagePtr& m) { got = m->size(); });
                       }};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  client->send(make_message({}, 4096));  // handshake still in flight
  engine.run();
  EXPECT_EQ(got, 4096u);
}

TEST_F(TcpTest, RecoversFromLossAndCountsRetransmissions) {
  // Force drops with a tiny switch buffer.
  sim::Engine eng;
  Fabric fab{eng};
  const NodeId x = fab.add_node("x");
  const NodeId y = fab.add_node("y");
  LinkConfig small;
  small.buffer_bytes = 8'000;
  fab.build_star({x, y}, small);
  Nic nx{fab, x}, ny{fab, y};

  std::uint64_t got = 0;
  TcpListener listener{ny, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) {
                         conn->set_message_handler(
                             [&](const MessagePtr& m) { got = m->size(); });
                       }};
  auto client = TcpConnection::connect(nx, y, 80);
  client->send(make_message({}, 2'000'000));
  eng.run_until(SimTime{} + seconds(30.0));
  EXPECT_EQ(got, 2'000'000u) << "reliable delivery despite drops";
  EXPECT_GT(client->stats().retransmissions, 0u);
}

TEST_F(TcpTest, RttMeasuredOnLan) {
  TcpListener listener{*nic_b, 80, TcpConfig{}, [](TcpConnection::Ptr) {}};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  client->send(make_message({}, 1000));
  engine.run();
  // Two hops each way, ~25 us propagation per hop plus serialization.
  EXPECT_GT(client->srtt_us(), 50.0);
  EXPECT_LT(client->srtt_us(), 2000.0);
}

TEST_F(TcpTest, ThroughputApproachesLineRate) {
  std::uint64_t got = 0;
  TcpListener listener{*nic_b, 80, TcpConfig{},
                       [&](TcpConnection::Ptr conn) {
                         conn->set_message_handler(
                             [&](const MessagePtr& m) { got += m->size(); });
                       }};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  for (int i = 0; i < 10; ++i) client->send(make_message({}, 1'000'000));
  engine.run_until(SimTime{} + seconds(2.0));
  // 10 MB over 100 Mbps takes ~0.85 s; allow slow start and framing slack.
  EXPECT_EQ(got, 10'000'000u);
}

TEST_F(TcpTest, StatsTrackQueueAndFlight) {
  TcpListener listener{*nic_b, 80, TcpConfig{}, [](TcpConnection::Ptr) {}};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  client->send(make_message({}, 10'000'000));
  const TcpStats stats = client->stats();
  EXPECT_EQ(stats.messages_sent, 1u);
  EXPECT_GT(stats.send_queue_bytes, 0u);
  engine.run_until(SimTime{} + seconds(5.0));
  EXPECT_EQ(client->stats().send_queue_bytes, 0u);
  EXPECT_EQ(client->stats().in_flight_bytes, 0u);
  EXPECT_GE(client->stats().bytes_acked, 10'000'000u);
}

TEST_F(TcpTest, CloseStopsTraffic) {
  TcpListener listener{*nic_b, 80, TcpConfig{}, [](TcpConnection::Ptr) {}};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  engine.run();
  client->close();
  client->send(make_message({}, 1000));
  const std::uint64_t sent_before = nic_a->stats().bytes_sent;
  engine.run();
  EXPECT_EQ(nic_a->stats().bytes_sent, sent_before);
}

// --- connection table ----------------------------------------------------

TEST_F(TcpTest, ServerConnectionsRegisteredOutOfFlowIdOrderStillDemux) {
  // A server registers each connection under the flow id its SYN carries,
  // in SYN arrival order. Hold the first client's SYN back so the server
  // learns the higher flow id first.
  sim::Engine eng;
  Fabric fab{eng};
  const NodeId s = fab.add_node("s");
  const NodeId c1 = fab.add_node("c1");
  const NodeId c2 = fab.add_node("c2");
  const auto ports = fab.build_star({s, c1, c2}, LinkConfig{});
  Nic ns{fab, s}, n1{fab, c1}, n2{fab, c2};

  std::vector<std::pair<NodeId, std::uint64_t>> got;  // (client, bytes)
  std::vector<std::uint64_t> accepted;                // flow ids, in order
  TcpListener listener{ns, 80, TcpConfig{}, [&](TcpConnection::Ptr conn) {
                         accepted.push_back(conn->flow_id());
                         const NodeId from = conn->remote_node();
                         conn->set_message_handler([&got, from](
                                                       const MessagePtr& m) {
                           got.emplace_back(from, m->size());
                         });
                       }};
  fab.set_link_down(ports[1].first, true);  // c1's uplink eats its SYN
  auto first = TcpConnection::connect(n1, s, 80);
  auto second = TcpConnection::connect(n2, s, 80);
  ASSERT_LT(first->flow_id(), second->flow_id());
  eng.run_until(SimTime{} + milliseconds(5.0));
  fab.set_link_down(ports[1].first, false);  // the SYN retry gets through
  eng.run_until(SimTime{} + seconds(1.0));
  ASSERT_EQ(accepted,
            (std::vector<std::uint64_t>{second->flow_id(), first->flow_id()}));

  first->send(make_message({}, 3000));
  second->send(make_message({}, 5000));
  eng.run_until(SimTime{} + seconds(2.0));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::pair<NodeId, std::uint64_t>>{
                     {c1, 3000}, {c2, 5000}}));
  // The table walks in flow-id order whatever the registration order.
  std::vector<std::uint64_t> walked;
  ns.for_each_tcp_connection(
      [&](const TcpConnection& conn) { walked.push_back(conn.flow_id()); });
  EXPECT_EQ(walked,
            (std::vector<std::uint64_t>{first->flow_id(), second->flow_id()}));
}

TEST_F(TcpTest, SegmentArrivingAfterCloseIsDropped) {
  TcpConnection::Ptr server_side;
  std::uint64_t delivered = 0;
  TcpListener listener{*nic_b, 80, TcpConfig{}, [&](TcpConnection::Ptr conn) {
                         server_side = conn;
                         conn->set_message_handler(
                             [&](const MessagePtr&) { ++delivered; });
                       }};
  auto client = TcpConnection::connect(*nic_a, b, 80);
  engine.run_until(SimTime{} + milliseconds(5.0));
  ASSERT_NE(server_side, nullptr);
  client->send(make_message({}, 200'000));  // many segments in flight
  engine.run_until(SimTime{} + milliseconds(6.0));
  const std::uint64_t received_before = nic_b->stats().bytes_received;
  server_side->close();
  engine.run_until(SimTime{} + seconds(1.0));
  EXPECT_GT(nic_b->stats().bytes_received, received_before)
      << "segments kept arriving for the closed flow";
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(server_side->stats().messages_delivered, 0u);
  std::size_t live = 0;
  nic_b->for_each_tcp_connection([&](const TcpConnection&) { ++live; });
  EXPECT_EQ(live, 0u);
}

TEST(NetMonitorTest, RttAndRetransMatchAWalkOverConnectionStats) {
  // A tiny switch buffer forces losses, so retransmissions are non-zero.
  sim::Engine eng;
  Fabric fab{eng};
  const NodeId x = fab.add_node("x");
  const NodeId y = fab.add_node("y");
  LinkConfig small;
  small.buffer_bytes = 8'000;
  fab.build_star({x, y}, small);
  Nic nx{fab, x}, ny{fab, y};
  host::Host host{eng, 0, host::HostConfig{}, Rng{1}};
  TcpListener listener{ny, 80, TcpConfig{}, [](TcpConnection::Ptr) {}};
  std::vector<TcpConnection::Ptr> conns;  // created in flow-id order
  for (int i = 0; i < 5; ++i) {
    conns.push_back(TcpConnection::connect(nx, y, 80));
    conns.back()->send(make_message({}, 100'000 * (i + 1)));
  }
  eng.run_until(SimTime{} + seconds(10.0));

  core::NetMonitor monitor{host, nx};
  const auto metrics = monitor.metrics();
  const auto index_of = [&metrics](const std::string& key) {
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (metrics[i].key == key) return i;
    }
    return metrics.size();
  };
  const std::size_t rtt = index_of("rtt");
  const std::size_t retrans = index_of("retrans");
  ASSERT_LT(rtt, metrics.size());
  ASSERT_LT(retrans, metrics.size());

  auto check = [&](const std::vector<TcpConnection::Ptr>& open) {
    double rtt_sum = 0.0;
    std::size_t with_rtt = 0;
    std::uint64_t retrans_sum = 0;
    for (const TcpConnection::Ptr& conn : open) {
      const TcpStats s = conn->stats();
      if (s.srtt_us > 0) {
        rtt_sum += s.srtt_us;
        ++with_rtt;
      }
      retrans_sum += s.retransmissions;
    }
    std::vector<core::MetricSample> out;
    monitor.collect(out, eng.now());
    ASSERT_EQ(out.size(), metrics.size());
    ASSERT_GT(with_rtt, 0u);
    EXPECT_EQ(out[rtt].value, rtt_sum / static_cast<double>(with_rtt));
    EXPECT_EQ(out[retrans].value, static_cast<double>(retrans_sum));
  };
  check(conns);
  std::uint64_t total_retrans = 0;
  for (const auto& conn : conns) total_retrans += conn->retransmissions();
  EXPECT_GT(total_retrans, 0u);

  conns[1]->close();
  conns[3]->close();
  check({conns[0], conns[2], conns[4]});
}

TEST(FabricIds, FlowIdsAndPortsArePerFabric) {
  sim::Engine engine;
  Fabric first{engine};
  Fabric second{engine};
  EXPECT_EQ(first.next_flow_id(), 1u);
  EXPECT_EQ(first.next_flow_id(), 2u);
  EXPECT_EQ(second.next_flow_id(), 1u);
  EXPECT_EQ(second.next_ephemeral_port(), Fabric::kFirstEphemeralPort);
  // The port counter cycles through the ephemeral range only: it never
  // reaches port 0 or a well-known port such as KECho's 7788.
  Port last = 0;
  for (int i = 1; i < 32768; ++i) last = second.next_ephemeral_port();
  EXPECT_EQ(last, Fabric::kLastEphemeralPort);
  EXPECT_EQ(second.next_ephemeral_port(), Fabric::kFirstEphemeralPort);
  EXPECT_EQ(first.next_ephemeral_port(), Fabric::kFirstEphemeralPort);
}

TEST(FabricIds, ClustersBuiltInSequenceReadTheSameConnectionTable) {
  auto connections = [] {
    sim::Engine engine;
    core::ClusterConfig config;
    config.node_count = 3;
    core::Cluster cluster{engine, config};
    cluster.start_dproc();
    engine.run_until(SimTime{} + seconds(3.0));
    auto text = cluster.procfs(0).read("/proc/net/connections");
    return text.is_ok() ? text.value() : text.status().to_string();
  };
  const std::string first = connections();
  EXPECT_NE(first.find("srtt_us"), std::string::npos) << first;
  EXPECT_GT(std::count(first.begin(), first.end(), '\n'), 2) << first;
  EXPECT_EQ(connections(), first);
}

}  // namespace
}  // namespace dproc::net
