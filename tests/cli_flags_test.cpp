// CLI regression tests for the flag validation matrix: contradictory
// shard/route/chaos and solve flag combinations, malformed or out-of-bounds
// values and switches given a value must exit 1 with a typed error (not
// crash, not silently coerce or serve the wrong thing), unknown flags —
// including the removed raw-store flags — and stray arguments exit 2 with
// the command's usage, a raw matrix handed to a serving subcommand exits 4
// naming `apsp_cli compact`, and the valid single-slice and routed paths
// exit 0. The two kernel variants answer alike, removed variant names exit
// 1, and every flag README.md shows is in its command's usage. Drives the
// real apsp_cli binary.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace {

std::string cli_path() {
#ifdef GAPSP_CLI_PATH_FILE
  std::ifstream in(GAPSP_CLI_PATH_FILE);
  std::string path;
  if (in.good() && std::getline(in, path) && !path.empty()) return path;
#endif
  if (const char* env = std::getenv("GAPSP_CLI")) return env;
  return {};
}

/// Runs `apsp_cli <args>` with output discarded; returns the exit code
/// (-1 if the child did not exit normally).
int run_cli(const std::string& cli, const std::string& args) {
  const std::string cmd = cli + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// Like run_cli, but captures stdout and stderr into `out`.
int run_cli_output(const std::string& cli, const std::string& args,
                   std::string& out) {
  const std::string cmd = cli + " " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  out.clear();
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, got);
  }
  const int status = pclose(pipe);
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// A checkpointed solve leaves its raw matrix behind at `path` (n=64).
int write_raw_matrix(const std::string& cli, const std::string& path) {
  return run_cli(cli, "--generate road:8x8 --store file --store-path " +
                          path + " --checkpoint " + path + ".ck");
}

class CliFlags : public ::testing::Test {
 protected:
  void SetUp() override {
    cli = cli_path();
    if (cli.empty()) {
      GTEST_SKIP() << "apsp_cli path unavailable (set GAPSP_CLI)";
    }
    store = ::testing::TempDir() + "gapsp_cli_flags.bin";
    // GAPSPZ1 kept store (n=64) on 16-wide tiles, sharded into 2 × 32 rows.
    // `--keep-store` would tile it 64-wide (one tile row, not shardable in
    // two), so the raw matrix of a checkpointed solve is compacted instead.
    ASSERT_EQ(write_raw_matrix(cli, store), 0);
    ASSERT_EQ(run_cli(cli, "compact --store-path " + store + " --block 16"),
              0);
    ASSERT_EQ(run_cli(cli, "shard --store-path " + store + " --shards 2"), 0);
  }

  void TearDown() override {
    if (store.empty()) return;
    std::remove(store.c_str());
    std::remove((store + ".shards").c_str());
    std::remove((store + ".shard.0").c_str());
    std::remove((store + ".shard.1").c_str());
    std::remove((store + ".ck").c_str());
    std::remove((store + ".cal").c_str());
  }

  std::string q(const std::string& flags) {
    return "query --store-path " + store + " " + flags;
  }

  std::string cli;
  std::string store;
};

TEST_F(CliFlags, ValidServingModesExitZero) {
  EXPECT_EQ(run_cli(cli, q("--point 0,63")), 0);
  EXPECT_EQ(run_cli(cli, q("--shard 0 --point 5,63")), 0);
  EXPECT_EQ(run_cli(cli, q("--shard 1 --row 40")), 0);
  EXPECT_EQ(run_cli(cli, q("--route local --point 0,63 --row 40")), 0);
  EXPECT_EQ(run_cli(cli, q("--route process --point 0,63 --row 40")), 0);
  EXPECT_EQ(run_cli(cli, q("--route process --no-verify-shard --repeat 2 "
                           "--point 0,63 --row 40")),
            0);
  // The argv the router spawns a worker with (store, shard and the engine
  // flags it forwards); on an empty stdin the worker exits cleanly.
  EXPECT_EQ(run_cli(cli, "serve --store-path " + store +
                             " --shard 0 --cache-mb 1 --shards 8 --retries 3 "
                             "--no-verify-shard --exit-after 1 </dev/null"),
            0);
}

TEST_F(CliFlags, SilentCoercionsAreTypedErrors) {
  const std::string solve = "--generate road:8x8 ";
  const std::string file = solve + "--store file --store-path " + store +
                           ".coerce.bin ";
  // {arguments, exit code, text the error must contain}
  const std::tuple<std::string, int, std::string> cases[] = {
      {solve + "--seed 12abc", 1, "--seed"},
      {q("--cache-mb -1 --point 0,1"), 1, "--cache-mb"},
      {q("--shards 0 --point 0,1"), 1, "--shards"},
      {q("--repeat 0 --point 0,1"), 1, "--repeat"},
      {solve + "--devices 0", 1, "--devices"},
      {solve + "--devices -3", 1, "--devices"},
      {solve + "--store File", 1, "--store"},
      {solve + "--keep-store", 1, "--keep-store"},
      {solve + "--resume", 1, "--resume"},
      {solve + "--algorithm fw --devices 2", 1, "--devices"},
      {solve + "--algorithm johnson --devices 2", 1, "--devices"},
      {solve + "--devices 2 --per-component", 1, "--per-component"},
      {file + "--keep-store=yes", 1, "--keep-store"},
      {solve + "--query 0,x", 1, "U,V"},
      {"bogus " + solve, 2, "usage: apsp_cli"},
      {solve + "--verify query", 2, "usage: apsp_cli"},
      {q("--point 0,1 --help"), 2, "--cache-mb N"},
  };
  for (const auto& [args, code, text] : cases) {
    std::string out;
    EXPECT_EQ(run_cli_output(cli, args, out), code) << args << ": " << out;
    EXPECT_NE(out.find(text), std::string::npos) << args << ": " << out;
  }
  std::remove((store + ".coerce.bin").c_str());
}

TEST_F(CliFlags, ContradictoryServingFlagsExitOne) {
  // --shard serves one slice; --route reaches all of them.
  EXPECT_EQ(run_cli(cli, q("--shard 0 --route local --point 0,1")), 1);
  EXPECT_EQ(run_cli(cli, q("--shard 0 --route process --point 0,1")), 1);
  // --kill-worker only makes sense with worker processes.
  EXPECT_EQ(run_cli(cli, q("--kill-worker 0:1 --point 0,1")), 1);
  EXPECT_EQ(run_cli(cli, q("--route local --kill-worker 0:1 --point 0,1")),
            1);
  // Online repair and single-engine chaos cannot cross the router.
  EXPECT_EQ(run_cli(cli, q("--route local --repair recompute --generate "
                           "road:8x8 --point 0,1")),
            1);
  EXPECT_EQ(run_cli(cli, q("--route process --fault-store-read 0.5 "
                           "--point 0,1")),
            1);
  // --no-verify-shard without any shard serving mode.
  EXPECT_EQ(run_cli(cli, q("--no-verify-shard --point 0,1")), 1);
  // Unknown route name.
  EXPECT_EQ(run_cli(cli, q("--route remote --point 0,1")), 1);
}

TEST_F(CliFlags, QueriesRoutingOutsideTheSliceExitOne) {
  // Shard 0 owns rows [0, 32): a point or row query outside it is a typed
  // usage error, not "unreachable".
  EXPECT_EQ(run_cli(cli, q("--shard 0 --point 40,1")), 1);
  EXPECT_EQ(run_cli(cli, q("--shard 0 --row 32")), 1);
  EXPECT_EQ(run_cli(cli, q("--shard 1 --point 0,1")), 1);
  // Mixed in/out batches fail too — no partial serving of a misrouted batch.
  EXPECT_EQ(run_cli(cli, q("--shard 1 --point '40,1;5,2'")), 1);
  // Shard index out of range.
  EXPECT_EQ(run_cli(cli, q("--shard 2 --point 0,1")), 1);
  EXPECT_EQ(run_cli(cli, q("--shard -1 --point 0,1")), 1);
}

TEST_F(CliFlags, UnknownFlagsExitTwo) {
  EXPECT_EQ(run_cli(cli, q("--point 0,1 --bogus-flag 3")), 2);
  EXPECT_EQ(run_cli(cli, "shard --store-path " + store + " --route local"),
            2);
  EXPECT_EQ(run_cli(cli, "serve --store-path " + store + " --point 0,1"), 2);
}

TEST_F(CliFlags, RemovedRawStoreFlagsAreUnknown) {
  const std::string solve = "--generate road:8x8 --store file --store-path " +
                            store + ".solve.bin --keep-store";
  EXPECT_EQ(run_cli(cli, solve + " --no-compress-store"), 2);
  EXPECT_EQ(run_cli(cli, "scrub --store-path " + store + " --write-sums"), 2);
  EXPECT_EQ(run_cli(cli, q("--point 0,1 --no-verify-sums")), 2);
  // The stored tile is the only grid: --block survives on `compact` alone.
  EXPECT_EQ(run_cli(cli, q("--point 0,1 --block 16")), 2);
  EXPECT_EQ(run_cli(cli, "serve --store-path " + store +
                             " --shard 0 --block 16 </dev/null"),
            2);
  EXPECT_EQ(run_cli(cli, "shard --store-path " + store +
                             " --shards 2 --block 16"),
            2);
  EXPECT_EQ(run_cli(cli, "scrub --store-path " + store + " --block 16"), 2);
  EXPECT_EQ(run_cli(cli, "update --store-path " + store +
                             " --updates none.txt --generate road:8x8 "
                             "--block 16"),
            2);
}

TEST_F(CliFlags, RawMatrixExitsFourNamingCompact) {
  const std::string raw = store + ".raw.bin";
  ASSERT_EQ(write_raw_matrix(cli, raw), 0);
  const std::string updates = store + ".updates.txt";
  std::ofstream(updates) << "0 1 3\n";
  const std::pair<std::string, std::string> cases[] = {
      {"query", "--point 0,1"},
      {"shard", "--shards 2"},
      {"scrub", ""},
      {"update", "--updates " + updates + " --generate road:8x8"}};
  for (const auto& [sub, flags] : cases) {
    std::string out;
    EXPECT_EQ(run_cli_output(
                  cli, sub + " --store-path " + raw + " " + flags, out),
              4)
        << sub << ": " << out;
    EXPECT_NE(out.find("apsp_cli compact"), std::string::npos)
        << sub << ": " << out;
  }
  std::remove(raw.c_str());
  std::remove((raw + ".ck").c_str());
  std::remove(updates.c_str());
}

TEST_F(CliFlags, InfoReportsAFreshCalibrationSidecarPresent) {
  // The auto selector calibrates, so --keep-store saves a .cal sidecar
  // next to the store; `info` must accept the format cost_model writes.
  const std::string kept = store + ".kept.bin";
  ASSERT_EQ(run_cli(cli, "--generate road:24x24 --store file --store-path " +
                             kept + " --keep-store"),
            0);
  std::string out;
  ASSERT_EQ(run_cli_output(cli, "info --store-path " + kept, out), 0) << out;
  EXPECT_NE(out.find("format: GAPSPZ1"), std::string::npos) << out;
  EXPECT_NE(out.find("calibration: present"), std::string::npos) << out;
  std::remove(kept.c_str());
  std::remove((kept + ".cal").c_str());
}

/// The `dist(U, V) = D` lines of a solve's output, in order.
std::string query_answers(const std::string& out) {
  std::string answers;
  std::size_t pos = 0;
  while ((pos = out.find("dist(", pos)) != std::string::npos) {
    const std::size_t eol = out.find('\n', pos);
    answers += out.substr(pos, eol - pos) + "\n";
    pos = eol;
  }
  return answers;
}

TEST_F(CliFlags, KernelVariantsAnswerQueriesAlike) {
  const std::string solve =
      "--generate road:8x8 --query '0,63;5,40;63,0;17,17' --kernel-variant ";
  std::string naive, tensor;
  ASSERT_EQ(run_cli_output(cli, solve + "naive", naive), 0) << naive;
  ASSERT_EQ(run_cli_output(cli, solve + "tensor", tensor), 0) << tensor;
  EXPECT_NE(naive.find("kernel engine: naive microkernel"), std::string::npos)
      << naive;
  EXPECT_NE(tensor.find("kernel engine: tensor microkernel"),
            std::string::npos)
      << tensor;
  ASSERT_NE(query_answers(naive), "");
  EXPECT_EQ(query_answers(naive), query_answers(tensor));
}

TEST_F(CliFlags, RemovedKernelVariantsExitOne) {
  for (const char* name : {"auto", "tiled", "tiled-reg", "simd"}) {
    std::string out;
    EXPECT_EQ(run_cli_output(cli,
                             std::string("--generate road:8x8 --kernel-variant ") +
                                 name,
                             out),
              1)
        << name << ": " << out;
    EXPECT_NE(out.find("naive | tensor"), std::string::npos)
        << name << ": " << out;
  }
}

TEST_F(CliFlags, ServeRequiresAShard) {
  EXPECT_EQ(run_cli(cli, "serve --store-path " + store + " </dev/null"), 1);
}

TEST_F(CliFlags, RoutedQueryWithoutManifestExitsOne) {
  const std::string bare = ::testing::TempDir() + "gapsp_cli_bare.bin";
  ASSERT_EQ(run_cli(cli, "--generate road:8x8 --store file --store-path " +
                             bare + " --keep-store"),
            0);
  EXPECT_EQ(run_cli(cli, "query --store-path " + bare +
                             " --route local --point 0,1"),
            1);
  EXPECT_EQ(run_cli(cli,
                    "query --store-path " + bare + " --shard 0 --point 0,1"),
            1);
  std::remove(bare.c_str());
  std::remove((bare + ".cal").c_str());
}

TEST_F(CliFlags, KilledWorkerStillExitsZeroWithTypedDegradation) {
  // Degradation is visible but non-fatal: the batch completes and the
  // process exits 0 even when a worker was killed mid-request.
  EXPECT_EQ(run_cli(cli, q("--route process --kill-worker 1:1 "
                           "--worker-retries 0 --point 0,1 --row 40")),
            0);
}

/// The flags `apsp_cli <sub>`'s usage lists (it prints it on exit 2).
std::set<std::string> usage_flags(const std::string& cli,
                                  const std::string& sub) {
  std::string out;
  EXPECT_EQ(run_cli_output(cli, sub + " --help", out), 2) << out;
  std::set<std::string> flags;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  --", 0) == 0) {
      flags.insert(line.substr(2, line.find(' ', 2) - 2));
    }
  }
  return flags;
}

TEST(CliReadme, EveryReadmeFlagIsInItsCommandsUsage) {
  const std::string cli = cli_path();
  if (cli.empty()) GTEST_SKIP() << "apsp_cli path unavailable (set GAPSP_CLI)";
  std::ifstream in(GAPSP_README_PATH);
  ASSERT_TRUE(in.good()) << GAPSP_README_PATH;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  const std::set<std::string> subcommands = {
      "query", "shard", "serve", "scrub", "update", "info", "compact"};
  const std::regex flag_re("--[a-z][a-z0-9-]*");
  int commands = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (auto at = lines[i].find("apsp_cli "); at != std::string::npos;
         at = lines[i].find("apsp_cli ", at + 1)) {
      std::string cmd = lines[i].substr(at + 9);
      if (at > 0 && lines[i][at - 1] == '`') {
        cmd = cmd.substr(0, cmd.find('`'));  // an inline code span
      } else {
        for (std::size_t j = i; !cmd.empty() && cmd.back() == '\\' &&
                                j + 1 < lines.size();) {
          cmd.pop_back();
          cmd += " " + lines[++j];  // a continuation line
        }
        cmd = cmd.substr(0, cmd.find(" #"));
      }
      std::istringstream words(cmd);
      std::string sub;
      words >> sub;
      if (subcommands.count(sub) == 0) sub.clear();
      const auto usage = usage_flags(cli, sub);
      ++commands;
      for (std::sregex_iterator it(cmd.begin(), cmd.end(), flag_re), end;
           it != end; ++it) {
        EXPECT_EQ(usage.count(it->str()), 1u)
            << "README.md:" << i + 1 << ": apsp_cli " << sub << " "
            << it->str() << " is not in the usage";
      }
    }
  }
  EXPECT_GE(commands, 15);
}

}  // namespace
