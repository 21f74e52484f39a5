// Pins every result-sink layout byte for byte. Eight small specs reach
// every JSON block and every per-run field (records with no route
// included): oracle, dynamics, the packet layouts with and without the
// fault, traffic and adversary engines, and the figure R, L and B axes.
// Two more pin FNBP's loop-fix and tie-break ablations, and one the
// dynamics runner's ANS-chain model.
// Each spec runs once on one thread and is rendered by the CSV, JSON and
// pretty-table sinks; each document is pinned by its FNV-1a 64 digest and
// byte length, the forwarding equivalence suite's convention. A mismatch
// prints the document.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/figures.hpp"
#include "eval/result_sink.hpp"

namespace qolsr {
namespace {

struct Pin {
  std::uint64_t digest;
  std::size_t bytes;
};

struct SinkPins {
  Pin table;
  Pin csv;
  Pin json;
};

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Runs `args` (qolsr_eval flags; a leading --figure= picks the canned
/// base spec) with one thread and checks each sink's document.
void check_spec(const std::vector<std::string>& args, const SinkPins& pins) {
  ExperimentSpec base;
  std::vector<std::string> flags;
  for (const std::string& arg : args) {
    if (arg.rfind("--figure=", 0) == 0)
      base = figure_by_name(arg.substr(9));
    else
      flags.push_back(arg);
  }
  flags.push_back("--threads=1");
  const ExperimentResult result =
      run_experiment(parse_experiment_spec(flags, std::move(base)));

  const auto check = [&](const ResultSink& sink, const Pin& pin) {
    std::ostringstream os;
    sink.write(result, os);
    const std::string document = os.str();
    const std::uint64_t digest = fnv1a(document);
    EXPECT_TRUE(digest == pin.digest && document.size() == pin.bytes)
        << sink.format_name() << ": digest 0x" << std::hex << digest
        << std::dec << " / " << document.size() << " bytes\n"
        << document;
  };
  check(PrettyTableSink{}, pins.table);
  check(CsvSink{}, pins.csv);
  check(JsonSink{}, pins.json);
}

TEST(SinkGolden, OracleFiveSelectorsPerRun) {
  check_spec({"--metric=delay",
              "--selectors=olsr_mpr,qolsr_mpr1,qolsr_mpr2,topology_filtering,"
              "fnbp",
              "--densities=8,12", "--runs=3", "--seed=5", "--field=400x400",
              "--per-run"},
             {{0x1a4ec3e327f6668aULL, 2089},
              {0x3c42c2e21ef3c4eaULL, 2243},
              {0x25c8509c1b8448b7ULL, 6454}});
}

TEST(SinkGolden, ChurnDynamics) {
  check_spec({"--mobility=churn", "--densities=10", "--runs=2", "--epochs=5",
              "--refresh=2", "--field=400x400"},
             {{0x152a7286347cbbf9ULL, 2216},
              {0x12428e857780b6a6ULL, 488},
              {0x375ef516ae55d207ULL, 2141}});
}

TEST(SinkGolden, ChurnChainDynamics) {
  // The dynamics runner's ANS-chain model, whose relay base is planned on
  // the refresh-time snapshot: with refreshes every third epoch, relays
  // that died since the last refresh stay in every hop's plan.
  check_spec({"--mobility=churn", "--routing=chain", "--densities=10",
              "--runs=2", "--epochs=6", "--refresh=3", "--field=400x400",
              "--selectors=olsr_mpr,qolsr_mpr2,fnbp"},
             {{0xf08bfd2e082a7e72ULL, 1796},
              {0xd5ac953b1994fb12ULL, 509},
              {0x5f3659dfae507fd0ULL, 2159}});
}

TEST(SinkGolden, FigureM) {
  check_spec({"--figure=M", "--runs=1", "--epochs=3", "--densities=5",
              "--field=300x300"},
             {{0xe9cc68ebdce00050ULL, 3154},
              {0xe9e8cb640e0cd01fULL, 653},
              {0x6558ae710131547ULL, 3156}});
}

TEST(SinkGolden, PacketPerRun) {
  check_spec({"--backend=packet", "--densities=6", "--runs=2",
              "--field=300x300", "--per-run"},
             {{0x77779a08c34eab92ULL, 2341},
              {0x58708f6c65b5982ULL, 1248},
              {0x351b21b0ed6989a9ULL, 4516}});
}

TEST(SinkGolden, PacketEveryEnginePerRun) {
  check_spec({"--backend=packet", "--densities=6", "--runs=2",
              "--field=300x300", "--adversaries=2@liar,replayer,selfish",
              "--corrupt=0.02", "--traffic=poisson", "--traffic-duration=2",
              "--loss=0.05", "--crash=1", "--per-run"},
             {{0x1ec0b850c9276da9ULL, 5883},
              {0x1693fde4a423eb49ULL, 2998},
              {0x3ad6bd8468918487ULL, 11454}});
}

TEST(SinkGolden, FigureR) {
  check_spec({"--figure=R", "--runs=1", "--densities=0,0.2",
              "--field=300x300"},
             {{0x6e07a98d4661b924ULL, 6440},
              {0xf66e8e150f291639ULL, 1936},
              {0xc0a8d99d896276d1ULL, 14710}});
}

TEST(SinkGolden, FigureL) {
  check_spec({"--figure=L", "--runs=1", "--densities=0.5,2",
              "--field=300x300", "--traffic-duration=2"},
             {{0x379d0af2a86489ecULL, 6164},
              {0xe08a57c2a1beffbfULL, 2483},
              {0xf127187dd0c283dbULL, 16540}});
}

TEST(SinkGolden, FigureB) {
  check_spec({"--figure=B", "--runs=1", "--densities=0,0.2",
              "--field=300x300"},
             {{0x9bceba2028c414e0ULL, 6223},
              {0xb136835d0cde0b99ULL, 2019},
              {0xe6bb988ca5b3d136ULL, 14578}});
}

// FNBP's two ablations, each exactly the figure-6 scenario of the
// compiled binary it replaced; the CSVs were checked against those
// binaries' set size, overhead and failures per density.
TEST(SinkGolden, LoopFixAblation) {
  check_spec({"--figure=6", "--routing=chain",
              "--selectors=fnbp,fnbp_no_loopfix", "--runs=1", "--seed=42"},
             {{0x8c57e562b98d5b42ULL, 2141},
              {0xe4336b37dfa6ea75ULL, 906},
              {0xd113c7e5ef8c84c0ULL, 4483}});
}

TEST(SinkGolden, TieBreakAblation) {
  check_spec({"--figure=6", "--selectors=fnbp,fnbp_id_tiebreak", "--runs=1",
              "--seed=42"},
             {{0xe2da8d85c91526c2ULL, 2173},
              {0x685d4620980fb5d6ULL, 898},
              {0xb9b714d305aab60fULL, 4448}});
}

}  // namespace
}  // namespace qolsr
