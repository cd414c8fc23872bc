// Determinism and ordering guarantees of the two-phase exchange protocol
// (sim/engine.hpp), plus the PayloadRef sharing semantics it relies on.
// The interesting failures here are schedule-dependent, so several tests
// repeat runs with deliberate timing jitter; the CI tsan job runs this
// binary under ThreadSanitizer to certify the lock-free delivery path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "sim/engine.hpp"

namespace km {
namespace {

std::uint64_t value_of(const Message& m) {
  Reader r(m.payload);
  return r.get_varint();
}

TEST(ExchangeOrder, GroupedByAscendingSourceUnderScheduleJitter) {
  // Every machine sends 3 messages to every peer; receivers must see them
  // grouped by ascending src with send order preserved inside a group,
  // no matter how the threads are scheduled.  Jitter each machine's
  // arrival at the barrier to shake out schedule dependence.
  constexpr std::size_t kMachines = 8;
  for (int trial = 0; trial < 5; ++trial) {
    Engine engine(kMachines,
                  {.bandwidth_bits = 1 << 16,
                   .seed = static_cast<std::uint64_t>(trial + 1)});
    engine.run([&](MachineContext& ctx) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(ctx.rng().below(200)));
      for (std::size_t dst = 0; dst < kMachines; ++dst) {
        if (dst == ctx.id()) continue;
        for (std::uint64_t seq = 0; seq < 3; ++seq) {
          Writer w;
          w.put_varint(seq);
          ctx.send(dst, 1, w);
        }
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(ctx.rng().below(200)));
      const auto in = ctx.exchange();
      ASSERT_EQ(in.size(), 3 * (kMachines - 1));
      for (std::size_t i = 0; i < in.size(); ++i) {
        const std::size_t group = i / 3;
        // Sources ascend, skipping ourselves.
        const std::size_t want_src = group + (group >= ctx.id() ? 1 : 0);
        EXPECT_EQ(in[i].src, want_src) << "position " << i;
        EXPECT_EQ(value_of(in[i]), i % 3) << "send order inside group";
      }
    });
  }
}

TEST(ExchangeOrder, StashedCollectiveLeftoversPreserveOrder) {
  // Messages sent in the same superstep as a collective are stashed and
  // must come back first, in their original delivery order, followed by
  // the next superstep's traffic.
  constexpr std::size_t kMachines = 4;
  Engine engine(kMachines, {.bandwidth_bits = 1 << 16, .seed = 9});
  engine.run([&](MachineContext& ctx) {
    for (std::size_t dst = 0; dst < kMachines; ++dst) {
      if (dst == ctx.id()) continue;
      for (std::uint64_t seq = 0; seq < 2; ++seq) {
        Writer w;
        w.put_varint(100 + seq);
        ctx.send(dst, 7, w);
      }
    }
    EXPECT_EQ(ctx.all_reduce_sum(1), kMachines);
    // Second wave, delivered by the exchange below.
    for (std::size_t dst = 0; dst < kMachines; ++dst) {
      if (dst == ctx.id()) continue;
      Writer w;
      w.put_varint(200);
      ctx.send(dst, 8, w);
    }
    const auto in = ctx.exchange();
    ASSERT_EQ(in.size(), 3 * (kMachines - 1));
    // Stash first (two per source, ascending src, send order kept), then
    // the new wave (one per source, ascending src).
    for (std::size_t i = 0; i < 2 * (kMachines - 1); ++i) {
      EXPECT_EQ(in[i].tag, 7u) << "stash must come first, position " << i;
      EXPECT_EQ(value_of(in[i]), 100 + i % 2);
    }
    for (std::size_t i = 2 * (kMachines - 1); i < in.size(); ++i) {
      EXPECT_EQ(in[i].tag, 8u);
      EXPECT_EQ(value_of(in[i]), 200u);
    }
    std::vector<std::uint32_t> stash_srcs, wave_srcs;
    for (const auto& m : in) {
      (m.tag == 7 ? stash_srcs : wave_srcs).push_back(m.src);
    }
    EXPECT_TRUE(std::is_sorted(stash_srcs.begin(), stash_srcs.end()));
    EXPECT_TRUE(std::is_sorted(wave_srcs.begin(), wave_srcs.end()));
  });
}

TEST(ExchangeOrder, BroadcastSharesOneImmutableBuffer) {
  // Zero-copy: all k-1 receivers of a broadcast must observe the very
  // same underlying buffer, and the bytes must equal what was written
  // (no receiver can have scribbled on another's view — payloads are
  // immutable by construction).
  constexpr std::size_t kMachines = 6;
  Engine engine(kMachines, {.bandwidth_bits = 1 << 16, .seed = 11});
  std::vector<PayloadRef> seen(kMachines);  // from machine 0's broadcast
  engine.run([&](MachineContext& ctx) {
    Writer w;
    for (int i = 0; i < 64; ++i) w.put_varint(ctx.id() * 64 + i);
    ctx.broadcast(5, w);
    for (auto& msg : ctx.exchange()) {
      if (msg.src == 0) seen[ctx.id()] = msg.payload;
    }
  });
  const PayloadRef& first = seen[1];
  ASSERT_FALSE(first.empty());
  Reader check(first);
  EXPECT_EQ(check.get_varint(), 0u);  // machine 0's first value
  for (std::size_t id = 2; id < kMachines; ++id) {
    EXPECT_TRUE(seen[id].shares_buffer_with(first))
        << "receiver " << id << " got a private copy";
    EXPECT_EQ(seen[id].data(), first.data());
    EXPECT_EQ(seen[id].size(), first.size());
  }
}

TEST(ExchangeOrder, MetricsIdenticalAcrossJitteredRuns) {
  // The accounting must be a pure function of the program, not of the
  // schedule: jittered runs produce bit-identical metrics.
  auto run_once = [](std::uint64_t jitter_seed) {
    Engine engine(6, {.bandwidth_bits = 128, .seed = 42});
    return engine.run([&](MachineContext& ctx) {
      // Timing jitter comes from a seed the engine does not see, so the
      // two runs sleep differently but must account identically.
      Rng jitter(jitter_seed, ctx.id());
      for (int step = 0; step < 4; ++step) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(jitter.below(150)));
        const auto peers = ctx.rng().below(5);
        for (std::uint64_t i = 0; i < peers; ++i) {
          Writer w;
          w.put_varint(step * 100 + i);
          ctx.send((ctx.id() + 1 + i) % 6, 1, w);
        }
        ctx.exchange();
      }
    });
  };
  const auto a = run_once(1);
  const auto b = run_once(2);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.supersteps, b.supersteps);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.max_link_bits_superstep, b.max_link_bits_superstep);
  EXPECT_EQ(a.send_bits_per_machine, b.send_bits_per_machine);
  EXPECT_EQ(a.recv_bits_per_machine, b.recv_bits_per_machine);
}

TEST(PayloadRef, TakesOwnershipAndViews) {
  Writer w;
  w.put_u32(0xdeadbeef);
  PayloadRef ref(w.take());
  EXPECT_EQ(ref.size(), 4u);
  Reader r(ref);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_FALSE(ref.empty());
}

TEST(PayloadRef, CopiesShareTheBuffer) {
  PayloadRef a(std::vector<std::byte>(16, std::byte{0x7f}));
  const PayloadRef b = a;          // NOLINT(performance-unnecessary-copy)
  EXPECT_TRUE(a.shares_buffer_with(b));
  EXPECT_EQ(a.data(), b.data());
  const PayloadRef c = PayloadRef::copy_of(a.view());
  EXPECT_FALSE(c.shares_buffer_with(a));  // deep copy: distinct buffer
  EXPECT_TRUE(std::equal(a.begin(), a.end(), c.begin(), c.end()));
}

TEST(PayloadRef, RemovePrefixIsZeroCopy) {
  Writer w;
  w.put_varint(3);          // 1 byte header
  w.put_u64(0x0123456789abcdefULL);
  PayloadRef whole(w.take());
  PayloadRef tail = whole;
  tail.remove_prefix(1);
  EXPECT_TRUE(tail.shares_buffer_with(whole));
  EXPECT_EQ(tail.data(), whole.data() + 1);
  EXPECT_EQ(tail.size(), whole.size() - 1);
  Reader r(tail);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  // Clamped past the end: empty view, still shares ownership.
  PayloadRef past = whole;
  past.remove_prefix(1000);
  EXPECT_EQ(past.size(), 0u);
  EXPECT_TRUE(past.shares_buffer_with(whole));
}

TEST(PayloadRef, EmptyPayloadHasNoOwner) {
  PayloadRef a;
  PayloadRef b(std::vector<std::byte>{});
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(a.shares_buffer_with(b));
  EXPECT_EQ(Message{}.size_bits(), Message::kHeaderBits);
}

// ---------------------------------------------------------------------------
// Per-link frame batching
// ---------------------------------------------------------------------------

// Sender and receiver independently recompute each link's message plan
// from pure hashes, so the receiver can verify counts, order, and bytes
// with no shared state.  Each planned message also picks its send
// overload, so framed (Writer, vector) and shared (PayloadRef) messages
// interleave on every link.
enum class SendVia { kWriter, kVector, kRef };

struct PlannedMessage {
  std::size_t size;
  std::uint64_t seed;
  SendVia via;
};

std::vector<PlannedMessage> link_plan(std::uint64_t trial, int step,
                                      std::size_t src, std::size_t dst) {
  Rng plan(mix64(trial * 7919 + static_cast<std::uint64_t>(step),
                 src * 4099 + dst));
  static constexpr std::size_t kSizes[] = {0,   1,   7,   33,  128,
                                           255, 256, 257, 300, 600};
  std::vector<PlannedMessage> out(plan.below(5));
  for (auto& m : out) {
    m.size = kSizes[plan.below(std::size(kSizes))];
    m.seed = plan.next();
    m.via = static_cast<SendVia>(plan.below(3));
  }
  return out;
}

std::vector<std::byte> pattern_bytes(std::uint64_t seed, std::size_t len) {
  Rng g(seed);
  std::vector<std::byte> bytes(len);
  for (auto& b : bytes) b = static_cast<std::byte>(g.next() & 0xff);
  return bytes;
}

// The frame batching property test: random message sizes/counts and
// send overloads per link, several supersteps.  Delivery must preserve
// ascending source and per-link send order with exact bytes, and every
// superstep's rounds/bits/max_link_bits must equal the *unbatched*
// formula (sum per message of kHeaderBits + 8 * payload), i.e. batching
// is invisible to the cost model.
void run_framing_property_trial(std::uint64_t trial) {
  constexpr std::size_t kMachines = 6;
  constexpr int kSupersteps = 4;
  constexpr std::uint64_t kBandwidth = 2048;
  {
    Engine engine(kMachines, {.bandwidth_bits = kBandwidth, .seed = trial});
    const auto metrics = engine.run([&](MachineContext& ctx) {
      for (int step = 0; step < kSupersteps; ++step) {
        for (std::size_t dst = 0; dst < kMachines; ++dst) {
          if (dst == ctx.id()) continue;
          for (const auto& m : link_plan(trial, step, ctx.id(), dst)) {
            const auto tag = static_cast<std::uint16_t>(m.size % 7);
            switch (m.via) {
              case SendVia::kWriter: {
                Writer w;
                w.put_bytes(pattern_bytes(m.seed, m.size));
                ctx.send(dst, tag, w);
                break;
              }
              case SendVia::kVector:
                ctx.send(dst, tag, pattern_bytes(m.seed, m.size));
                break;
              case SendVia::kRef:
                ctx.send(dst, tag, PayloadRef(pattern_bytes(m.seed, m.size)));
                break;
            }
          }
        }
        const auto in = ctx.exchange();
        // Expected inbox: ascending src, send order within each src.
        std::size_t pos = 0;
        for (std::size_t src = 0; src < kMachines; ++src) {
          if (src == ctx.id()) continue;
          for (const auto& m : link_plan(trial, step, src, ctx.id())) {
            ASSERT_LT(pos, in.size());
            const Message& got = in[pos++];
            ASSERT_EQ(got.src, src);
            ASSERT_EQ(got.tag, static_cast<std::uint16_t>(m.size % 7));
            ASSERT_EQ(got.payload.size(), m.size);
            const auto want = pattern_bytes(m.seed, m.size);
            ASSERT_TRUE(std::equal(want.begin(), want.end(),
                                   got.payload.begin(), got.payload.end()))
                << "payload bytes corrupted (src=" << src
                << " size=" << m.size << ")";
          }
        }
        ASSERT_EQ(pos, in.size()) << "unexpected extra messages";
      }
    });
    // Recompute the unbatched formula from the plans and compare the
    // per-superstep timeline bit for bit.
    ASSERT_EQ(metrics.timeline.size(),
              static_cast<std::size_t>(kSupersteps));
    for (int step = 0; step < kSupersteps; ++step) {
      std::uint64_t bits = 0, msgs = 0, max_link = 0;
      for (std::size_t src = 0; src < kMachines; ++src) {
        for (std::size_t dst = 0; dst < kMachines; ++dst) {
          if (src == dst) continue;
          std::uint64_t link_bits = 0;
          for (const auto& m : link_plan(trial, step, src, dst)) {
            link_bits += Message::kHeaderBits + 8 * m.size;
            ++msgs;
          }
          bits += link_bits;
          max_link = std::max(max_link, link_bits);
        }
      }
      const auto& t = metrics.timeline[static_cast<std::size_t>(step)];
      EXPECT_EQ(t.messages, msgs) << "step " << step;
      EXPECT_EQ(t.bits, bits) << "step " << step;
      EXPECT_EQ(t.max_link_bits, max_link) << "step " << step;
      const std::uint64_t rounds =
          msgs == 0 ? 0
                    : std::max<std::uint64_t>(
                          1, (max_link + kBandwidth - 1) / kBandwidth);
      EXPECT_EQ(t.rounds, rounds) << "step " << step;
    }
  }
}

TEST(Framing, RandomSizesMatchUnbatchedAccountingAndOrder) {
  for (std::uint64_t trial = 1; trial <= 3; ++trial) {
    run_framing_property_trial(trial);
  }
}

TEST(Framing, SmallPayloadsShareOneFrameBufferPerLink) {
  // Transport-level zero-copy: every small Writer payload of a
  // (src, dst, superstep) is a slice of one frame buffer, the link's
  // first message included, while another link gets a frame of its own.
  std::vector<PayloadRef> held(3);  // keep frames alive to compare
  Engine engine(3, {.bandwidth_bits = 1 << 16, .seed = 5});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    if (ctx.id() == 0) {
      for (std::uint64_t i = 0; i < 3; ++i) {
        Writer w;
        w.put_varint(i);
        ctx.send(1, 1, w);
      }
      Writer other;
      other.put_varint(9);
      ctx.send(2, 1, other);
    }
    const auto in = ctx.exchange();
    if (ctx.id() == 1) {
      ASSERT_EQ(in.size(), 3u);
      for (std::size_t i = 1; i < in.size(); ++i) {
        EXPECT_TRUE(in[0].payload.shares_buffer_with(in[i].payload))
            << "message " << i << " is not on the link frame";
      }
      for (std::uint64_t i = 0; i < 3; ++i) {
        Reader r(in[i].payload);
        EXPECT_EQ(r.get_varint(), i);
        EXPECT_EQ(r.remaining(), 0u);
      }
      held[1] = in[0].payload;
    } else if (ctx.id() == 2) {
      ASSERT_EQ(in.size(), 1u);
      Reader r(in[0].payload);
      EXPECT_EQ(r.get_varint(), 9u);
      held[2] = in[0].payload;
    } else {
      EXPECT_TRUE(in.empty());
    }
  });
  EXPECT_FALSE(held[1].shares_buffer_with(held[2]))
      << "two links must not share a frame";
  // Unbatched formula: one header per message plus its 1-byte varint.
  EXPECT_EQ(metrics.bits, 4 * Message::kHeaderBits + 8 * 4);
  EXPECT_EQ(metrics.messages, 4u);
}

TEST(Framing, EveryOwnedPayloadRidesItsLinkFrame) {
  // No size limit on the frame: on each link the first message, a tiny
  // varint, a payload past the old 256-byte default threshold and one
  // past the old 4096-byte clamp (through the vector overload) all share
  // one buffer and round-trip exactly.
  constexpr std::size_t kMid = 300;
  constexpr std::size_t kBig = 5000;
  const std::vector<std::byte> big(kBig, std::byte{0x42});
  Engine engine(2, {.bandwidth_bits = 1 << 16, .seed = 11});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    const std::size_t peer = 1 - ctx.id();
    Writer mid;
    mid.put_bytes(std::vector<std::byte>(kMid, std::byte{0x7e}));
    ctx.send(peer, 1, mid);
    Writer tiny;
    tiny.put_varint(ctx.id());
    ctx.send(peer, 2, tiny);
    ctx.send(peer, 3, big);  // the vector overload
    const auto in = ctx.exchange();
    ASSERT_EQ(in.size(), 3u);
    for (std::size_t i = 1; i < in.size(); ++i) {
      EXPECT_TRUE(in[0].payload.shares_buffer_with(in[i].payload))
          << "message " << i << " is not on the link frame";
    }
    ASSERT_EQ(in[0].payload.size(), kMid);
    for (const std::byte b : in[0].payload) {
      ASSERT_EQ(b, std::byte{0x7e});
    }
    Reader r(in[1].payload);
    EXPECT_EQ(r.get_varint(), peer);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_TRUE(std::equal(big.begin(), big.end(), in[2].payload.begin(),
                           in[2].payload.end()));
  });
  // Unbatched formula: one header per message plus its payload bytes,
  // three messages on each of the two links.
  EXPECT_EQ(metrics.bits,
            2 * (3 * Message::kHeaderBits + 8 * (kMid + 1 + kBig)));
  EXPECT_EQ(metrics.messages, 6u);
}

TEST(Framing, EmptyAndBoundaryPayloads) {
  // Sizes 0, 1, around the old 256-byte default threshold, and one past
  // the old 4096-byte clamp all round-trip, and total bits match the
  // unbatched formula.
  const std::vector<std::size_t> sizes = {0, 1, 256, 257, 4097};
  Engine engine(2, {.bandwidth_bits = 1 << 16, .seed = 6});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      Writer w;
      w.put_bytes(std::vector<std::byte>(sizes[i],
                                         std::byte{static_cast<unsigned char>(
                                             0x10 + i)}));
      ctx.send(1 - ctx.id(), static_cast<std::uint16_t>(i), w);
    }
    const auto in = ctx.exchange();
    ASSERT_EQ(in.size(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_EQ(in[i].tag, i);
      ASSERT_EQ(in[i].payload.size(), sizes[i]);
      for (const std::byte b : in[i].payload) {
        ASSERT_EQ(b, std::byte{static_cast<unsigned char>(0x10 + i)});
      }
    }
  });
  std::uint64_t want_bits = 0;
  for (const std::size_t s : sizes) {
    want_bits += 2 * (Message::kHeaderBits + 8 * s);  // both directions
  }
  EXPECT_EQ(metrics.bits, want_bits);
}

TEST(PayloadRef, SliceIsZeroCopy) {
  Writer w;
  for (std::uint8_t i = 0; i < 16; ++i) w.put_u8(i);
  PayloadRef whole(w.take());
  const PayloadRef mid = whole.slice(4, 8);
  EXPECT_TRUE(mid.shares_buffer_with(whole));
  EXPECT_EQ(mid.data(), whole.data() + 4);
  ASSERT_EQ(mid.size(), 8u);
  for (std::uint8_t i = 0; i < 8; ++i) {
    EXPECT_EQ(mid.view()[i], std::byte{static_cast<unsigned char>(i + 4)});
  }
  // Clamped: offset past the end is empty, length clamps to the view.
  EXPECT_EQ(whole.slice(100, 4).size(), 0u);
  EXPECT_EQ(whole.slice(12, 100).size(), 4u);
}

TEST(PayloadRef, OutlivesTheEngineRun) {
  // A receiver may keep payloads after the engine run tears down all
  // machine state; the ref count must keep the buffer alive.
  PayloadRef kept;
  {
    Engine engine(2, {.bandwidth_bits = 1 << 12, .seed = 3});
    engine.run([&](MachineContext& ctx) {
      Writer w;
      w.put_varint(77);
      ctx.send(1 - ctx.id(), 1, w);
      auto in = ctx.exchange();
      if (ctx.id() == 0) kept = in.at(0).payload;
    });
  }
  Reader r(kept);
  EXPECT_EQ(r.get_varint(), 77u);
}

}  // namespace
}  // namespace km
