// Robustness under malformed and adversarial inputs: the E-code front end,
// the control-command parser, and the wire codecs must reject garbage with
// a Status — never crash, hang, or accept silently corrupted state.
#include <gtest/gtest.h>

#include <span>
#include <sstream>

#include "dproc/core/cluster.hpp"
#include "dproc/core/sketch.hpp"
#include "dproc/core/incident.hpp"
#include "dproc/core/tuning.hpp"
#include "dproc/ecode/ecode.hpp"
#include "dproc/kecho/node.hpp"
#include "dproc/net/wire.hpp"
#include "dproc/util/rng.hpp"

namespace dproc {
namespace {

std::string random_token_soup(Rng& rng, int tokens) {
  static const char* kTokens[] = {
      "int",  "double", "sample", "if",    "else",  "for",   "while",
      "return", "break", "continue", "input", "output", "value",
      "x",    "y",      "0",      "1",    "2.5",  "50e6",  "(",
      ")",    "{",      "}",      "[",    "]",    ";",     ",",
      ".",    "+",      "-",      "*",    "/",    "%",     "=",
      "==",   "!=",     "<",      ">",    "&&",   "||",    "!",
      "?",    ":",      "++",     "--",   "abs",  "min"};
  std::string out;
  for (int i = 0; i < tokens; ++i) {
    out += kTokens[rng.uniform_int(0, std::size(kTokens) - 1)];
    out += ' ';
  }
  return out;
}

TEST(FuzzEcode, TokenSoupNeverCrashes) {
  Rng rng{0xF022};
  ecode::CompileEnv env;
  env.constants = {{"LOADAVG", 0}};
  int compiled = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string source =
        random_token_soup(rng, static_cast<int>(rng.uniform_int(1, 40)));
    auto filter = ecode::Filter::compile(source, env);
    if (filter.is_ok()) {
      ++compiled;
      // Whatever parsed must also run to completion or fail cleanly.
      std::vector<ecode::Sample> input{{0, 1.0, 0.5, 0}};
      (void)filter.value().run(input,
                               ecode::VmLimits{.max_instructions = 50'000});
    } else {
      EXPECT_FALSE(filter.status().message().empty());
    }
  }
  // Sanity: the soup occasionally forms valid programs (e.g. "x" fails,
  // ";" parses) — the fuzzer is actually exercising both paths.
  EXPECT_GT(compiled, 0);
}

TEST(FuzzEcode, RandomBytesNeverCrash) {
  Rng rng{0xF0FF};
  for (int trial = 0; trial < 500; ++trial) {
    std::string source;
    const int length = static_cast<int>(rng.uniform_int(0, 200));
    for (int i = 0; i < length; ++i) {
      source += static_cast<char>(rng.uniform_int(1, 127));
    }
    (void)ecode::Filter::compile(source);
  }
}

TEST(FuzzEcode, DeepNestingIsBounded) {
  // Pathological nesting must not smash the stack: 20k parens.
  std::string source = "return ";
  for (int i = 0; i < 20'000; ++i) source += '(';
  source += '1';
  for (int i = 0; i < 20'000; ++i) source += ')';
  source += ';';
  // Either compiles (fine) or errors (fine); it must return.
  (void)ecode::Filter::compile(source);
}

TEST(FuzzControl, RandomCommandLinesNeverCrash) {
  Rng rng{0xC001};
  static const char* kWords[] = {"period", "threshold", "differential",
                                 "filter", "clear",     "window",
                                 "loadavg", "above",    "below",
                                 "range",   "change",   "2",
                                 "-1",      "50e6",     "15%",
                                 "if",      "cpu_util", "garbage"};
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    const int lines = static_cast<int>(rng.uniform_int(1, 4));
    for (int l = 0; l < lines; ++l) {
      const int words = static_cast<int>(rng.uniform_int(1, 6));
      for (int w = 0; w < words; ++w) {
        text += kWords[rng.uniform_int(0, std::size(kWords) - 1)];
        text += ' ';
      }
      text += '\n';
    }
    auto config = core::parse_control_commands(text);
    if (!config.is_ok()) {
      EXPECT_FALSE(config.status().message().empty());
    }
  }
}

TEST(FuzzCodec, TuningDecoderRejectsBitFlips) {
  core::TuningConfig config;
  config.default_period = seconds(2.0);
  config.thresholds.push_back(
      {"loadavg", core::ThresholdKind::kAbove, 2.0, 0.0});
  config.filter_source = "output[0] = input[0];";
  const auto bytes = core::encode_tuning(config);

  Rng rng{0xB17F};
  for (int trial = 0; trial < 500; ++trial) {
    auto corrupted = bytes;
    // Truncate or flip a few bytes.
    if (rng.bernoulli(0.5) && corrupted.size() > 1) {
      corrupted.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corrupted.size()) - 1)));
    }
    for (int flips = 0; flips < 3 && !corrupted.empty(); ++flips) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(corrupted.size()) - 1));
      corrupted[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    // Must return (ok or error), never crash; decoded strings stay bounded.
    auto decoded = core::decode_tuning(corrupted);
    if (decoded.is_ok() && decoded.value().filter_source) {
      EXPECT_LE(decoded.value().filter_source->size(), corrupted.size());
    }
  }
}

// Builds a well-formed KECho event frame: fixed header + payload header +
// optionally one trace-context trailer.
net::MessagePtr event_frame(std::size_t payload_bytes,
                            const net::TraceContext* trace) {
  net::ByteWriter w;
  w.u32(3);             // channel
  w.u32(7);             // source
  w.i64(1'000'000);     // submit time
  w.u32(static_cast<std::uint32_t>(payload_bytes));
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    w.u8(static_cast<std::uint8_t>(i));
  }
  if (trace != nullptr) trace->encode(w);
  return net::make_message(w.take());
}

TEST(FuzzTraceContext, FrameDecoderHandlesEveryTruncation) {
  net::TraceContext ctx;
  ctx.trace_id = (7ull << 32) | 42;
  ctx.origin = 7;
  ctx.publish_ns = 1'000'000;
  ctx.prev_hop_ns = 1'000'000;
  const net::MessagePtr full = event_frame(24, &ctx);

  for (std::size_t len = 0; len <= full->header.size(); ++len) {
    auto truncated = std::make_shared<net::Message>();
    truncated->header.assign(full->header.begin(),
                             full->header.begin() + static_cast<long>(len));
    kecho::Event event;
    const bool ok = kecho::decode_event_frame(truncated, event);
    // Exactly two prefixes are valid: payload with no trailer, and the
    // full frame. Everything between is a truncated trailer → reject.
    const std::size_t payload_end = 20 + 24;
    if (len == payload_end) {
      EXPECT_TRUE(ok);
      EXPECT_EQ(event.trace.trace_id, 0u);  // no context decoded
    } else if (len == full->header.size()) {
      EXPECT_TRUE(ok);
      EXPECT_EQ(event.trace.trace_id, ctx.trace_id);
      EXPECT_EQ(event.trace.origin, ctx.origin);
    } else {
      EXPECT_FALSE(ok) << "accepted truncation at " << len;
    }
  }
}

TEST(FuzzTraceContext, BadMagicByteRejectsTrailer) {
  net::TraceContext ctx;
  ctx.trace_id = 99;
  const net::MessagePtr frame = event_frame(8, &ctx);
  auto mangled = std::make_shared<net::Message>();
  mangled->header = frame->header;
  // The trailer starts right after the 8-byte payload header.
  mangled->header[20 + 8] ^= 0xFF;
  kecho::Event event;
  EXPECT_FALSE(kecho::decode_event_frame(mangled, event));
}

TEST(FuzzTraceContext, FrameBitFlipsNeverCrash) {
  Rng rng{0x7C7C};
  net::TraceContext ctx;
  ctx.trace_id = (3ull << 32) | 1;
  ctx.origin = 3;
  const net::MessagePtr base = event_frame(40, &ctx);
  for (int trial = 0; trial < 2000; ++trial) {
    auto corrupted = std::make_shared<net::Message>();
    corrupted->header = base->header;
    if (rng.bernoulli(0.5)) {
      corrupted->header.resize(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(corrupted->header.size()))));
    }
    for (int flips = 0; flips < 3 && !corrupted->header.empty(); ++flips) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(corrupted->header.size()) - 1));
      corrupted->header[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    kecho::Event event;
    if (kecho::decode_event_frame(corrupted, event)) {
      // Whatever decodes must stay inside the frame.
      EXPECT_LE(event.payload_offset + event.payload_bytes,
                corrupted->header.size());
      (void)event.payload_header();
    }
  }
}

net::MonitorBatch sample_batch(std::size_t entries, std::uint8_t flags) {
  net::MonitorBatch batch;
  batch.flags = flags;
  for (std::size_t i = 0; i < entries; ++i) {
    batch.entries.push_back(net::MonitorBatch::Entry{
        static_cast<std::uint32_t>(i), 0.5 + static_cast<double>(i),
        static_cast<std::int64_t>(1'000'000 * (i + 1))});
  }
  return batch;
}

TEST(FuzzMonitorBatch, RoundTripPreservesEveryEntry) {
  const net::MonitorBatch batch =
      sample_batch(13, net::MonitorBatch::kFlagKeyframe);
  net::ByteWriter w;
  batch.encode(w);
  EXPECT_EQ(w.size(), batch.encoded_bytes());

  net::ByteReader r{w.bytes()};
  net::MonitorBatch decoded;
  ASSERT_TRUE(net::MonitorBatch::decode(r, decoded));
  EXPECT_TRUE(decoded.keyframe());
  ASSERT_EQ(decoded.entries.size(), batch.entries.size());
  for (std::size_t i = 0; i < batch.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].id, batch.entries[i].id);
    EXPECT_DOUBLE_EQ(decoded.entries[i].value, batch.entries[i].value);
    EXPECT_EQ(decoded.entries[i].sampled_ns, batch.entries[i].sampled_ns);
  }
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(FuzzMonitorBatch, EveryTruncationIsRejected) {
  net::ByteWriter w;
  sample_batch(5, 0).encode(w);
  const std::vector<std::uint8_t> full = w.bytes();
  for (std::size_t len = 0; len < full.size(); ++len) {
    net::ByteReader r{std::span<const std::uint8_t>{full.data(), len}};
    net::MonitorBatch out;
    EXPECT_FALSE(net::MonitorBatch::decode(r, out))
        << "accepted truncation at " << len;
  }
}

TEST(FuzzMonitorBatch, RejectsUnknownVersionAndReservedZero) {
  net::ByteWriter w;
  sample_batch(2, 0).encode(w);
  for (const std::uint8_t version :
       {std::uint8_t{0}, std::uint8_t{net::MonitorBatch::kVersion + 1},
        std::uint8_t{0xFF}}) {
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes[0] = version;
    net::ByteReader r{bytes};
    net::MonitorBatch out;
    EXPECT_FALSE(net::MonitorBatch::decode(r, out))
        << "accepted version " << int(version);
  }
}

TEST(FuzzMonitorBatch, CorruptCountCannotOverAllocateOrCrash) {
  Rng rng{0xBA7C};
  net::ByteWriter w;
  sample_batch(8, net::MonitorBatch::kFlagKeyframe).encode(w);
  const std::vector<std::uint8_t> base = w.bytes();
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> corrupted = base;
    if (rng.bernoulli(0.5)) {
      corrupted.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corrupted.size()))));
    }
    for (int flips = 0; flips < 4 && !corrupted.empty(); ++flips) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(corrupted.size()) - 1));
      corrupted[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    net::ByteReader r{corrupted};
    net::MonitorBatch out;
    if (net::MonitorBatch::decode(r, out)) {
      // Whatever decodes must have fit inside the buffer.
      EXPECT_LE(out.encoded_bytes(), corrupted.size());
    }
  }
}

net::AggregateBatch sample_aggregate(std::size_t entries, std::uint8_t flags,
                                     std::size_t top) {
  net::AggregateBatch batch;
  batch.flags = flags;
  batch.tier = 1;
  batch.zone = 7;
  for (std::size_t i = 0; i < entries; ++i) {
    net::AggregateBatch::Entry entry;
    entry.id = static_cast<std::uint32_t>(i);
    entry.count = static_cast<std::uint32_t>(8 + i);
    entry.latest_ns = static_cast<std::int64_t>(1'000'000 * (i + 1));
    entry.min = 0.25 * static_cast<double>(i);
    entry.max = 4.0 + static_cast<double>(i);
    entry.sum = 10.0 * static_cast<double>(i + 1);
    for (std::size_t t = 0; t < top; ++t) {
      entry.top.push_back(net::AggregateBatch::Top{
          static_cast<std::uint32_t>(t), entry.max - static_cast<double>(t)});
    }
    batch.entries.push_back(std::move(entry));
  }
  return batch;
}

TEST(FuzzAggregateBatch, RoundTripPreservesEveryEntry) {
  const net::AggregateBatch batch =
      sample_aggregate(9, net::AggregateBatch::kKnownFlags, 3);
  net::ByteWriter w;
  batch.encode(w);
  EXPECT_EQ(w.size(), batch.encoded_bytes());

  net::ByteReader r{w.bytes()};
  net::AggregateBatch decoded;
  ASSERT_TRUE(net::AggregateBatch::decode(r, decoded));
  EXPECT_EQ(decoded.flags, batch.flags);
  EXPECT_EQ(decoded.tier, batch.tier);
  EXPECT_EQ(decoded.zone, batch.zone);
  ASSERT_EQ(decoded.entries.size(), batch.entries.size());
  for (std::size_t i = 0; i < batch.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i], batch.entries[i]);
  }
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(FuzzAggregateBatch, EveryTruncationIsRejected) {
  net::ByteWriter w;
  sample_aggregate(4, net::AggregateBatch::kKnownFlags, 2).encode(w);
  const std::vector<std::uint8_t> full = w.bytes();
  for (std::size_t len = 0; len < full.size(); ++len) {
    net::ByteReader r{std::span<const std::uint8_t>{full.data(), len}};
    net::AggregateBatch out;
    EXPECT_FALSE(net::AggregateBatch::decode(r, out))
        << "accepted truncation at " << len;
  }
}

TEST(FuzzAggregateBatch, RejectsUnknownVersionFlagsAndOversizedTopList) {
  net::ByteWriter w;
  sample_aggregate(2, net::AggregateBatch::kFlagMean, 0).encode(w);
  for (const std::uint8_t version :
       {std::uint8_t{0}, std::uint8_t{net::AggregateBatch::kVersion + 1},
        std::uint8_t{0xFF}}) {
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes[0] = version;
    net::ByteReader r{bytes};
    net::AggregateBatch out;
    EXPECT_FALSE(net::AggregateBatch::decode(r, out))
        << "accepted version " << int(version);
  }
  {
    // Reserved flag bits must be rejected, not silently ignored.
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes[1] = static_cast<std::uint8_t>(net::AggregateBatch::kKnownFlags + 1);
    net::ByteReader r{bytes};
    net::AggregateBatch out;
    EXPECT_FALSE(net::AggregateBatch::decode(r, out));
  }
  {
    // A top_count past kMaxTopK bounds what a reader will reserve. The
    // top-count byte of entry 0 sits right after the fixed fields.
    net::ByteWriter wt;
    sample_aggregate(1, net::AggregateBatch::kFlagTopK, 1).encode(wt);
    std::vector<std::uint8_t> bytes = wt.bytes();
    const std::size_t top_at = net::AggregateBatch::kHeaderBytes +
                               net::AggregateBatch::kEntryFixedBytes;
    bytes[top_at] = net::AggregateBatch::kMaxTopK + 1;
    net::ByteReader r{bytes};
    net::AggregateBatch out;
    EXPECT_FALSE(net::AggregateBatch::decode(r, out));
  }
  {
    // A zero-origin entry is nonsense (count >= 1 by construction).
    net::ByteWriter wz;
    sample_aggregate(1, 0, 0).encode(wz);
    std::vector<std::uint8_t> bytes = wz.bytes();
    const std::size_t count_at = net::AggregateBatch::kHeaderBytes + 4;
    bytes[count_at] = bytes[count_at + 1] = bytes[count_at + 2] =
        bytes[count_at + 3] = 0;
    net::ByteReader r{bytes};
    net::AggregateBatch out;
    EXPECT_FALSE(net::AggregateBatch::decode(r, out));
  }
}

TEST(FuzzAggregateBatch, CorruptCountCannotOverAllocateOrCrash) {
  Rng rng{0xA66B};
  net::ByteWriter w;
  sample_aggregate(6, net::AggregateBatch::kKnownFlags, 2).encode(w);
  const std::vector<std::uint8_t> base = w.bytes();
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> corrupted = base;
    if (rng.bernoulli(0.5)) {
      corrupted.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corrupted.size()))));
    }
    for (int flips = 0; flips < 4 && !corrupted.empty(); ++flips) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(corrupted.size()) - 1));
      corrupted[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    net::ByteReader r{corrupted};
    net::AggregateBatch out;
    if (net::AggregateBatch::decode(r, out)) {
      // Whatever decodes must have fit inside the buffer.
      EXPECT_LE(out.encoded_bytes(), corrupted.size());
    }
  }
}

// --- registry wire protocol -------------------------------------------------
//
// The directory server is the one component every node talks to, so its
// request parser faces the whole cluster: truncations, corrupted counts,
// unknown ops and replica-protocol frames aimed at an unreplicated server
// must all be counted drops, never crashes or phantom registrations.

/// A live single-server registry to aim frames at (2 nodes, no monitors).
struct RegistryFuzzRig {
  sim::Engine engine;
  core::Cluster cluster;
  RegistryFuzzRig() : cluster(engine, config()) {}
  static core::ClusterConfig config() {
    core::ClusterConfig config;
    config.node_count = 2;
    config.dproc_nodes = std::vector<std::size_t>{};
    return config;
  }
  kecho::RegistryServer& registry() { return cluster.registry(); }
  void pump() { engine.run_until(engine.now() + seconds(0.1)); }
};

TEST(FuzzRegistry, TruncatedJoinRequestIsCountedMalformed) {
  RegistryFuzzRig rig;
  const net::MessagePtr full =
      kecho::encode_join_request("fuzzchan", kecho::Member{1, 7788});
  for (std::size_t len = 0; len < full->header.size(); ++len) {
    auto truncated = std::make_shared<net::Message>();
    truncated->header.assign(full->header.begin(),
                             full->header.begin() + static_cast<long>(len));
    rig.registry().handle_request(1, 7788, truncated);
  }
  // Every proper prefix is malformed; none may register anything.
  EXPECT_EQ(rig.registry().stats().drops_malformed, full->header.size());
  EXPECT_EQ(rig.registry().stats().joins, 0u);
  EXPECT_TRUE(rig.registry().channel_names().empty());
  // The intact frame still works after the abuse.
  rig.registry().handle_request(1, 7788, full);
  rig.pump();
  EXPECT_EQ(rig.registry().stats().joins, 1u);
  EXPECT_EQ(rig.registry().channel_members("fuzzchan").size(), 1u);
}

TEST(FuzzRegistry, JoinResponseDecoderRejectsTruncationAndBadCount) {
  // A well-formed response body (as the client sees it, op byte stripped).
  net::ByteWriter w;
  w.str("fuzzchan");
  w.u32(5);  // channel id
  w.u32(2);  // member count
  w.u32(10);
  w.u16(7788);
  w.u32(11);
  w.u16(7788);
  const std::vector<std::uint8_t> full = w.take();

  for (std::size_t len = 0; len < full.size(); ++len) {
    net::ByteReader r{std::span<const std::uint8_t>{full.data(), len}};
    kecho::JoinResponse out;
    EXPECT_FALSE(kecho::decode_join_response(r, false, out))
        << "accepted truncation at " << len;
  }
  {
    net::ByteReader r{full};
    kecho::JoinResponse out;
    ASSERT_TRUE(kecho::decode_join_response(r, false, out));
    EXPECT_EQ(out.id, 5u);
    ASSERT_EQ(out.members.size(), 2u);
    EXPECT_EQ(out.members[1].node, 11u);
  }
  {
    // A corrupted member count far past the bytes present must be rejected
    // up front — not reserve gigabytes or decode a partial list. The count
    // sits right after the name (4 + 8 bytes) and the id (4 bytes).
    std::vector<std::uint8_t> corrupted = full;
    const std::size_t count_at = 4 + 8 + 4;
    corrupted[count_at] = 0xFF;
    corrupted[count_at + 1] = 0xFF;
    corrupted[count_at + 2] = 0xFF;
    corrupted[count_at + 3] = 0xFF;
    net::ByteReader r{corrupted};
    kecho::JoinResponse out;
    EXPECT_FALSE(kecho::decode_join_response(r, false, out));
    EXPECT_TRUE(out.members.empty());
  }
}

TEST(FuzzRegistry, UnknownAndReplicaOpsDropAtUnreplicatedServer) {
  RegistryFuzzRig rig;
  std::uint64_t expected = 0;
  // Genuinely unknown opcodes.
  for (const std::uint8_t op : {std::uint8_t{16}, std::uint8_t{99},
                                std::uint8_t{0xFF}, std::uint8_t{0}}) {
    net::ByteWriter w;
    w.u8(op);
    w.u32(1);
    rig.registry().handle_request(1, 7788, net::make_message(w.take()));
    ++expected;
    EXPECT_EQ(rig.registry().stats().drops_unknown_op, expected);
  }
  // Replica-protocol frames (heartbeat, sync, forward...) aimed at a server
  // with replication off are protocol violations, not crashes.
  for (const kecho::RegistryOp op :
       {kecho::RegistryOp::kReplicaHeartbeat, kecho::RegistryOp::kRegistrySync,
        kecho::RegistryOp::kSyncRequest, kecho::RegistryOp::kSyncDone,
        kecho::RegistryOp::kForward}) {
    net::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(op));
    w.u32(0);
    w.u32(7);
    rig.registry().handle_request(1, 7788, net::make_message(w.take()));
    ++expected;
    EXPECT_EQ(rig.registry().stats().drops_unknown_op, expected);
  }
  EXPECT_TRUE(rig.registry().channel_names().empty());
}

TEST(FuzzRegistry, SyncFrameBitFlipsNeverCrashOrOverAllocate) {
  net::RegistrySync sync;
  sync.table_version = 42;
  sync.next_id = 7;
  sync.channel_id = 3;
  sync.name = "fuzzchan";
  for (std::uint32_t i = 0; i < 6; ++i) {
    sync.members.push_back(net::RegistrySync::Member{i + 1, 7788});
  }
  net::ByteWriter w;
  sync.encode(w);
  const std::vector<std::uint8_t> base = w.take();
  {
    net::ByteReader r{base};
    net::RegistrySync out;
    ASSERT_TRUE(net::RegistrySync::decode(r, out));
    EXPECT_EQ(out.members.size(), 6u);
  }
  for (std::size_t len = 0; len < base.size(); ++len) {
    net::ByteReader r{std::span<const std::uint8_t>{base.data(), len}};
    net::RegistrySync out;
    EXPECT_FALSE(net::RegistrySync::decode(r, out))
        << "accepted truncation at " << len;
  }
  Rng rng{0x5FA6};
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> corrupted = base;
    if (rng.bernoulli(0.5)) {
      corrupted.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corrupted.size()))));
    }
    for (int flips = 0; flips < 4 && !corrupted.empty(); ++flips) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(corrupted.size()) - 1));
      corrupted[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    net::ByteReader r{corrupted};
    net::RegistrySync out;
    if (net::RegistrySync::decode(r, out)) {
      // A decoded member list must have fit inside the buffer.
      EXPECT_LE(out.members.size() * net::RegistrySync::kMemberBytes,
                corrupted.size());
      EXPECT_LE(out.name.size(), corrupted.size());
    }
  }
}

TEST(FuzzRegistry, CacheInvalidateBitFlipsNeverCrash) {
  net::CacheInvalidate invalidate;
  invalidate.table_version = 17;
  invalidate.name = "fuzzchan";
  net::ByteWriter w;
  invalidate.encode(w);
  const std::vector<std::uint8_t> base = w.take();
  for (std::size_t len = 0; len < base.size(); ++len) {
    net::ByteReader r{std::span<const std::uint8_t>{base.data(), len}};
    net::CacheInvalidate out;
    EXPECT_FALSE(net::CacheInvalidate::decode(r, out))
        << "accepted truncation at " << len;
  }
  Rng rng{0xCA5E};
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<std::uint8_t> corrupted = base;
    if (rng.bernoulli(0.5)) {
      corrupted.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corrupted.size()))));
    }
    for (int flips = 0; flips < 3 && !corrupted.empty(); ++flips) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(corrupted.size()) - 1));
      corrupted[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    net::ByteReader r{corrupted};
    net::CacheInvalidate out;
    if (net::CacheInvalidate::decode(r, out)) {
      EXPECT_LE(out.name.size(), corrupted.size());
    }
  }
}

TEST(FuzzRegistry, ReplicatedServerSurvivesCorruptedReplicaTraffic) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 4;
  config.registry.enabled = true;
  config.dproc_nodes = std::vector<std::size_t>{};
  core::Cluster cluster(engine, config);
  engine.run_until(SimTime::zero() + seconds(1.0));

  kecho::RegistryServer& leader = cluster.registry_replica(0);
  Rng rng{0xF0D6};
  // Corrupted heartbeats, syncs, sync requests, done markers and forwards,
  // from a peer address: parsed or dropped, never fatal, and the leadership
  // state stays sane throughout.
  const std::uint8_t ops[] = {
      static_cast<std::uint8_t>(kecho::RegistryOp::kReplicaHeartbeat),
      static_cast<std::uint8_t>(kecho::RegistryOp::kRegistrySync),
      static_cast<std::uint8_t>(kecho::RegistryOp::kSyncRequest),
      static_cast<std::uint8_t>(kecho::RegistryOp::kSyncDone),
      static_cast<std::uint8_t>(kecho::RegistryOp::kForward),
      static_cast<std::uint8_t>(kecho::RegistryOp::kCacheInvalidate)};
  for (int trial = 0; trial < 2000; ++trial) {
    net::ByteWriter w;
    w.u8(ops[rng.uniform_int(0, std::size(ops) - 1)]);
    const int body = static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < body; ++i) {
      w.u8(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    leader.handle_request(2, kecho::RegistryServer::kDefaultPort,
                          net::make_message(w.take()));
  }
  engine.run_until(engine.now() + seconds(2.0));
  // The replica set still functions: replica 0 leads (or a successor does),
  // and a real join still completes end to end.
  ASSERT_NE(cluster.registry_leader(), nullptr);
  cluster.node(3).kecho->join("after-the-storm");
  engine.run_until(engine.now() + seconds(2.0));
  EXPECT_GE(cluster.registry_leader()->channel_members("after-the-storm")
                .size(),
            1u);
}

TEST(FuzzFlight, ParseEventNeverCrashesAndRoundTrips) {
  // Field-wise mutation of a valid line: each position draws from a pool
  // mixing valid and hostile values, so both accept and reject paths run.
  Rng rng{0xF119};
  static const char* kTags[] = {"flight", "incident", "fl", ""};
  static const char* kTs[] = {"5", "-3", "99999999999999999999", "x", "5.5"};
  static const char* kSev[] = {"warn", "info", "debug", "error", "fatal", "3"};
  static const char* kSub[] = {"dmon", "kecho", "fault", "smartptr", "tcp"};
  static const char* kCode[] = {"201:peer_stale", "1:member_join", "42",
                                ":", "65536:huge", "-1:neg", "x:y"};
  static const char* kArg[] = {"0", "3", "18446744073709551615", "-1", "z"};
  static const char* kTail[] = {"", "", "trace=0xabc", "trace=", "trace=zz",
                                "extra stuff"};
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string line = kTags[rng.uniform_int(0, std::size(kTags) - 1)];
    line += ' ';
    line += kTs[rng.uniform_int(0, std::size(kTs) - 1)];
    line += ' ';
    line += kSev[rng.uniform_int(0, std::size(kSev) - 1)];
    line += ' ';
    line += kSub[rng.uniform_int(0, std::size(kSub) - 1)];
    line += ' ';
    line += kCode[rng.uniform_int(0, std::size(kCode) - 1)];
    const int args = static_cast<int>(rng.uniform_int(0, 5));
    for (int i = 0; i < args; ++i) {
      line += ' ';
      line += kArg[rng.uniform_int(0, std::size(kArg) - 1)];
    }
    line += ' ';
    line += kTail[rng.uniform_int(0, std::size(kTail) - 1)];
    telemetry::FlightEvent event;
    if (telemetry::parse_event(line, event)) {
      ++parsed;
      // Anything accepted must survive a render/parse round trip intact.
      telemetry::FlightEvent again;
      ASSERT_TRUE(
          telemetry::parse_event(telemetry::render_event(event), again));
      EXPECT_EQ(telemetry::render_event(again),
                telemetry::render_event(event));
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzFlight, ParseBundlesNeverCrashes) {
  Rng rng{0xB0DL};
  static const char* kLines[] = {
      "incident 1 node 0 node0 opened_ns 5 trigger t score 80 symptoms 1",
      "incident x node y",
      "history kecho/evictions 1 0 2",
      "history",
      "flight 5 warn dmon 201:peer_stale 3 4200 0 0",
      "flight garbage",
      "end",
      "",
      "prose between bundles",
  };
  for (int trial = 0; trial < 3000; ++trial) {
    std::string dump;
    const int lines = static_cast<int>(rng.uniform_int(0, 10));
    for (int i = 0; i < lines; ++i) {
      dump += kLines[rng.uniform_int(0, std::size(kLines) - 1)];
      dump += '\n';
    }
    std::vector<core::IncidentBundle> bundles;
    const bool ok = core::parse_bundles(dump, bundles);
    if (ok) {
      // Whatever parsed must re-render and re-parse to the same bundles.
      std::vector<core::IncidentBundle> again;
      ASSERT_TRUE(core::parse_bundles(core::render_bundles(bundles), again));
      EXPECT_EQ(again.size(), bundles.size());
    }
  }
}

TEST(FuzzFlight, ParseBundlesRandomBytesNeverCrash) {
  Rng rng{0xB0FF};
  for (int trial = 0; trial < 1000; ++trial) {
    std::string dump;
    const int length = static_cast<int>(rng.uniform_int(0, 400));
    for (int i = 0; i < length; ++i) {
      dump += static_cast<char>(rng.uniform_int(1, 127));
    }
    std::vector<core::IncidentBundle> bundles;
    (void)core::parse_bundles(dump, bundles);
    telemetry::FlightEvent event;
    (void)telemetry::parse_event(dump, event);
  }
}

// --- warm-vs-fresh VM fuzz -------------------------------------------------
//
// A Vm reuses its operand stack, locals and output slots across runs, and a
// caller-owned FilterResult is refilled in place. Every generated program
// runs on a fresh Vm into a fresh result and on one long-lived Vm (into one
// long-lived result) that has already run every earlier program, including
// the ones that failed part-way. The two runs must agree on status (code
// and message), outputs, return value and fuel; any difference is state
// leaking from one run into the next.

/// Returns whether the fresh run failed, so callers can count error paths.
bool expect_warm_matches_fresh(ecode::Vm& warm,
                               ecode::FilterResult& warm_result,
                               const ecode::Bytecode& code,
                               std::span<const ecode::Sample> input,
                               ecode::SketchHost* host_fresh,
                               ecode::SketchHost* host_warm,
                               const std::string& source) {
  ecode::Vm fresh{warm.limits()};
  fresh.set_sketch_host(host_fresh);
  warm.set_sketch_host(host_warm);
  ecode::FilterResult fresh_result;
  const Status sf = fresh.run(code, input, fresh_result);
  const Status sw = warm.run(code, input, warm_result);
  EXPECT_EQ(sf.code(), sw.code()) << source << "\nfresh: " << sf.to_string()
                                  << "\nwarm: " << sw.to_string();
  EXPECT_EQ(sf.message(), sw.message()) << source;
  if (sf && sw) {
    EXPECT_EQ(fresh_result.outputs, warm_result.outputs) << source;
    EXPECT_EQ(fresh_result.return_value.has_value(),
              warm_result.return_value.has_value())
        << source;
    if (fresh_result.return_value && warm_result.return_value) {
      EXPECT_DOUBLE_EQ(*fresh_result.return_value, *warm_result.return_value)
          << source;
    }
    EXPECT_EQ(fresh_result.instructions_executed,
              warm_result.instructions_executed)
        << source;
  }
  return !sf;
}

std::string random_vm_program(Rng& rng, std::size_t input_count) {
  std::ostringstream source;
  source << "int a = " << rng.uniform_int(-50, 50) << ";\n"
         << "double b = " << rng.uniform_int(0, 9) << ".5;\n"
         << "int out = 0;\n";
  const int stmts = static_cast<int>(rng.uniform_int(1, 12));
  for (int stmt = 0; stmt < stmts; ++stmt) {
    switch (rng.uniform_int(0, 9)) {
      case 0:
        source << "a = a + " << rng.uniform_int(-9, 9) << " * "
               << rng.uniform_int(1, 9) << ";\n";
        break;
      case 1:
        source << "b = b * 1.25 + input["
               << rng.uniform_int(0, static_cast<std::int64_t>(input_count) - 1)
               << "].value;\n";
        break;
      case 2:
        source << "a = a " << (rng.bernoulli(0.5) ? "<<" : ">>") << " "
               << rng.uniform_int(0, 63) << ";\n";
        break;
      case 3:
        // Sometimes divides by zero: the error path must also agree.
        source << "a = " << rng.uniform_int(-99, 99) << " / (a % "
               << rng.uniform_int(2, 5) << ");\n";
        break;
      case 4:
        source << "for (int i = 0; i < " << rng.uniform_int(0, 40)
               << "; ++i) a = a + i;\n";
        break;
      case 5:
        source << "if (b > " << rng.uniform_int(0, 20)
               << ") { a = a + 1; } else { b = b - 0.5; }\n";
        break;
      case 6:
        source << "output[out] = input["
               << rng.uniform_int(0, static_cast<std::int64_t>(input_count) - 1)
               << "]; out = out + 1;\n";
        break;
      case 7:
        source << "b = b + max(abs(a), min(b, "
               << rng.uniform_int(0, 9) << ".0)) + sqrt(abs(b));\n";
        break;
      case 8:
        source << "a = a " << (rng.bernoulli(0.5) ? "&" : "|") << " "
               << rng.uniform_int(0, 255) << ";\n";
        break;
      case 9:
        source << "a = (b != 0.0) ? a ^ " << rng.uniform_int(0, 127)
               << " : ~a;\n";
        break;
    }
  }
  if (rng.bernoulli(0.8)) source << "return a + b;\n";
  return source.str();
}

TEST(FuzzVmReuse, WarmVmMatchesFreshVmOnRandomPrograms) {
  Rng rng{0xD1FF};
  std::vector<ecode::Sample> input;
  for (int i = 0; i < 4; ++i) {
    input.push_back(ecode::Sample{i, rng.uniform(-100.0, 100.0),
                                  rng.uniform(0.0, 50.0), 1'000 * (i + 1)});
  }
  // Every program runs under the default limits and under a tight fuel
  // limit that forces the exhaustion path; each limit has its own warm Vm.
  ecode::Vm warm{};
  ecode::Vm warm_tight{ecode::VmLimits{.max_instructions = 40}};
  ecode::FilterResult warm_result;
  ecode::FilterResult warm_tight_result;
  int error_paths = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::string source = random_vm_program(rng, input.size());
    auto filter = ecode::Filter::compile(source);
    ASSERT_TRUE(filter.is_ok()) << filter.status().to_string() << "\n"
                                << source;
    const ecode::Bytecode& code = filter.value().bytecode();
    error_paths += expect_warm_matches_fresh(warm, warm_result, code, input,
                                             nullptr, nullptr, source);
    error_paths += expect_warm_matches_fresh(
        warm_tight, warm_tight_result, code, input, nullptr, nullptr, source);
  }
  EXPECT_GT(error_paths, 0);  // the harness exercises the error paths too
}

TEST(FuzzVmReuse, WarmVmMatchesFreshVmOnSketchBuiltins) {
  // Two structurally identical sketch stacks per trial, one per Vm, so
  // skmerge's mutation cannot leak between the runs under comparison.
  auto build_stack = [](core::TopKSketch& primary, core::TopKSketch& aux) {
    Rng feed{0x5EED};
    for (int i = 0; i < 4'000; ++i) {
      primary.update(feed.uniform_int(0, 300), 1.0);
      aux.update(feed.uniform_int(0, 300), 2.0);
    }
    primary.refresh_top(8);
  };
  Rng rng{0x5ED1};
  ecode::Vm warm{};
  ecode::FilterResult warm_result;
  for (int trial = 0; trial < 100; ++trial) {
    core::TopKSketch primary_a, aux_a, primary_b, aux_b;
    build_stack(primary_a, aux_a);
    build_stack(primary_b, aux_b);
    core::FilterSketchBridge host_a{primary_a};
    host_a.add_aux(aux_a);
    core::FilterSketchBridge host_b{primary_b};
    host_b.add_aux(aux_b);

    std::ostringstream source;
    source << "double acc = 0.0;\n";
    const int stmts = static_cast<int>(rng.uniform_int(1, 6));
    for (int stmt = 0; stmt < stmts; ++stmt) {
      switch (rng.uniform_int(0, 3)) {
        case 0:
          source << "acc = acc + topk(" << rng.uniform_int(0, 9) << ");\n";
          break;
        case 1:
          source << "acc = acc + topkid(" << rng.uniform_int(0, 9) << ");\n";
          break;
        case 2:
          source << "acc = acc + cmlookup(" << rng.uniform_int(0, 400)
                 << ");\n";
          break;
        case 3:
          source << "acc = acc + skmerge(" << rng.uniform_int(0, 2) << ");\n";
          break;
      }
    }
    source << "return acc;\n";
    ecode::CompileEnv env;
    env.sketch_builtins = true;
    auto filter = ecode::Filter::compile(source.str(), env);
    ASSERT_TRUE(filter.is_ok()) << filter.status().to_string() << "\n"
                                << source.str();
    (void)expect_warm_matches_fresh(warm, warm_result,
                                    filter.value().bytecode(), {}, &host_a,
                                    &host_b, source.str());
  }
}

TEST(FuzzTraceContext, RawDecodeNeverReadsPastBuffer) {
  Rng rng{0x7CAB};
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(
        rng.uniform_int(0, 2 * net::TraceContext::kWireBytes)));
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    // Half the trials lead with the real magic so the body path runs too.
    if (!bytes.empty() && rng.bernoulli(0.5)) {
      bytes[0] = net::TraceContext::kMagic;
    }
    net::ByteReader r{bytes};
    net::TraceContext ctx;
    const bool ok = net::TraceContext::decode(r, ctx);
    if (ok) {
      EXPECT_GE(bytes.size(), net::TraceContext::kWireBytes);
    }
  }
}

}  // namespace
}  // namespace dproc
