// Fuzz harness for the hardened wire codec: parse_packet (and the cheap
// medium-layer peeks) must never crash, over-read or leak on arbitrary
// bytes — the property the wire-corruption engine leans on when it
// delivers bit-flipped frames to receivers.
//
// Two build modes from the same file:
//
//  * libFuzzer (`-fsanitize=fuzzer`, define QOLSR_LIBFUZZER): the standard
//    LLVMFuzzerTestOneInput entry point, coverage-guided.
//      clang++ -std=c++20 -fsanitize=fuzzer,address,undefined \
//        -DQOLSR_LIBFUZZER -Isrc tests/fuzz/messages_fuzz.cpp \
//        src/proto/messages.cpp -o messages_fuzz
//  * standalone smoke (default, what CMake builds and CI runs under
//    ASan+UBSan): a seeded deterministic driver that replays the golden
//    corpus — serialized HELLO/TC/DATA frames — and then hammers the
//    parser with truncations, extensions, bit flips and random buffers
//    for a bounded iteration count (argv[1], default 10000).
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "proto/messages.hpp"

namespace {

using qolsr::parse_packet;

/// The invariant under test, applied to one input. A parse either rejects
/// the buffer or yields a message that re-serializes to the exact input
/// bytes (the codec has no redundant encodings), a relayable TC's
/// header-rewritten copy equals its re-encoding under the forwarded
/// header, and the wire peeks agree with the full parse.
void check_one(const std::vector<std::byte>& bytes) {
  const auto parsed = parse_packet(bytes);
  if (parsed.has_value()) {
    std::vector<std::byte> round;
    if (parsed->hello.has_value())
      round = qolsr::serialize(parsed->header, *parsed->hello);
    else if (parsed->tc.has_value())
      round = qolsr::serialize(parsed->header, *parsed->tc);
    else
      round = qolsr::serialize(parsed->header, *parsed->data);
    if (round != bytes) {
      std::fprintf(stderr, "round-trip mismatch on %zu-byte accepted input\n",
                   bytes.size());
      std::abort();
    }
    if (parsed->tc.has_value() && parsed->header.ttl > 1) {
      // A relay rewrites the header in place of re-encoding the body.
      qolsr::PacketHeader forwarded = parsed->header;
      forwarded.ttl -= 1;
      forwarded.hop_count += 1;
      if (qolsr::relay_frame(bytes) !=
          qolsr::serialize(forwarded, *parsed->tc)) {
        std::fprintf(stderr, "relay_frame disagrees with re-encoding\n");
        std::abort();
      }
    }
    if (qolsr::is_data_frame(bytes) != parsed->data.has_value()) {
      std::fprintf(stderr, "is_data_frame disagrees with parse\n");
      std::abort();
    }
    if (parsed->data.has_value() &&
        qolsr::peek_data_payload_id(bytes) != parsed->data->payload_id) {
      std::fprintf(stderr, "peek_data_payload_id disagrees with parse\n");
      std::abort();
    }
  } else {
    // Rejected inputs still get the peeks — they must tolerate anything.
    (void)qolsr::is_data_frame(bytes);
    (void)qolsr::peek_data_payload_id(bytes);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::vector<std::byte> bytes(size);
  for (std::size_t i = 0; i < size; ++i) bytes[i] = std::byte{data[i]};
  check_one(bytes);
  return 0;
}

#ifndef QOLSR_LIBFUZZER

namespace {

/// splitmix64 — self-contained so the harness only links the codec.
std::uint64_t next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

qolsr::PacketHeader header_of(qolsr::MessageType type) {
  qolsr::PacketHeader h;
  h.type = type;
  h.originator = 42;
  h.sequence = 1234;
  h.ttl = 17;
  h.hop_count = 3;
  return h;
}

/// Golden seed corpus: one well-formed frame of every message shape.
std::vector<std::vector<std::byte>> golden_corpus() {
  using namespace qolsr;
  std::vector<std::vector<std::byte>> corpus;

  LinkQos qos;
  qos.bandwidth = 7.25;
  qos.delay = 0.125;
  qos.jitter = 0.5;
  qos.loss_cost = 0.01;
  qos.energy = 3.5;
  qos.buffers = 12.0;

  HelloMessage hello;
  hello.originator = 42;
  hello.links.push_back({7, LinkStatus::kSymmetric, qos});
  hello.links.push_back({9, LinkStatus::kMpr, qos});
  corpus.push_back(serialize(header_of(MessageType::kHello), hello));

  TcMessage tc;
  tc.originator = 42;
  tc.ansn = 77;
  tc.advertised.push_back({3, LinkStatus::kSymmetric, qos});
  corpus.push_back(serialize(header_of(MessageType::kTc), tc));

  TcMessage empty_tc;
  empty_tc.originator = 1;
  corpus.push_back(serialize(header_of(MessageType::kTc), empty_tc));

  DataMessage data;
  data.source = 5;
  data.destination = 17;
  data.payload_id = 0xdeadbeef;
  corpus.push_back(serialize(header_of(MessageType::kData), data));

  return corpus;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t iterations = 10000;
  if (argc > 1) iterations = static_cast<std::size_t>(std::atoll(argv[1]));

  const auto corpus = golden_corpus();
  for (const auto& frame : corpus) check_one(frame);

  std::uint64_t rng = 0x6a09e667f3bcc909ULL;
  for (std::size_t i = 0; i < iterations; ++i) {
    std::vector<std::byte> bytes = corpus[next(rng) % corpus.size()];
    switch (next(rng) % 4) {
      case 0:  // truncate
        bytes.resize(next(rng) % (bytes.size() + 1));
        break;
      case 1: {  // extend with garbage
        const std::size_t extra = 1 + next(rng) % 64;
        for (std::size_t k = 0; k < extra; ++k)
          bytes.push_back(std::byte{static_cast<unsigned char>(next(rng))});
        break;
      }
      case 2: {  // flip 1-8 bits anywhere
        const std::size_t flips = 1 + next(rng) % 8;
        for (std::size_t k = 0; k < flips && !bytes.empty(); ++k) {
          const std::size_t bit = next(rng) % (bytes.size() * 8);
          bytes[bit / 8] ^= std::byte{
              static_cast<unsigned char>(1u << (bit % 8))};
        }
        break;
      }
      case 3: {  // fully random buffer, hostile sizes included
        bytes.assign(next(rng) % 512, std::byte{0});
        for (auto& b : bytes)
          b = std::byte{static_cast<unsigned char>(next(rng))};
        break;
      }
    }
    check_one(bytes);
  }

  std::printf("messages_fuzz: %zu iterations, %zu corpus frames, all clean\n",
              iterations, corpus.size());
  return 0;
}

#endif  // QOLSR_LIBFUZZER
