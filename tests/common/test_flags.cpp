// Flags tests: every bound type round-trips, malformed values are rejected
// with the flag named, given() reports what the command line set, usage()
// shows registration-time values as defaults, and env_or reads the same way.
#include "common/flags.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/check.h"

namespace paintplace {
namespace {

enum class Norm { kBatch, kInstance };

/// A table covering every bound type, with the fields it writes.
struct Fixture {
  int replicas = 2;
  Index width = 32;
  std::uint16_t port = 7433;
  std::size_t cache = 1024;
  std::uint64_t seed = 1;
  float lr = 1e-3f;
  double slo = 0.01;
  std::string host = "127.0.0.1";
  std::chrono::milliseconds log_period{2000};
  std::chrono::microseconds max_wait{0};
  bool swap = false;
  bool dropout = true;
  Norm norm = Norm::kBatch;
  std::vector<std::string> designs;
  Flags flags{"tool", "a test tool"};

  Fixture() {
    flags.add("--replicas N", replicas, "replicas")
        .add("--width N", width, "resolution")
        .add("--port N", port, "TCP port")
        .add("--cache N", cache, "cache entries")
        .add("--seed N", seed, "seed")
        .add("--lr F", lr, "learning rate")
        .add("--slo X", slo, "error-rate objective")
        .add("--host A", host, "server address")
        .add("--log-ms N", log_period, "log period")
        .add("--max-wait-us N", max_wait, "batch wait")
        .add("--allow-swap", swap, "accept swaps")
        .add("--no-dropout", dropout, "disable dropout", false)
        .add(
            "--norm batch|instance",
            [this](std::string_view v) {
              if (v != "batch" && v != "instance") return false;
              norm = v == "batch" ? Norm::kBatch : Norm::kInstance;
              return true;
            },
            "batch", "normalisation family")
        .add(
            "--designs a,b",
            [this](std::string_view v) {
              designs.clear();
              for (std::size_t at = 0; at <= v.size();) {
                const std::size_t comma = std::min(v.find(',', at), v.size());
                designs.emplace_back(v.substr(at, comma - at));
                at = comma + 1;
              }
              return true;
            },
            "diffeq1", "design names");
  }

  std::string parse(std::vector<const char*> args) {
    args.insert(args.begin(), "tool");
    return flags.parse(static_cast<int>(args.size()), args.data());
  }
};

TEST(Flags, EveryBoundTypeRoundTrips) {
  Fixture f;
  ASSERT_EQ(f.parse({"--replicas", "-3", "--width", "9000000000", "--port", "65535", "--cache",
                     "0", "--seed", "18446744073709551615", "--lr", "2e-3", "--slo", "0.25",
                     "--host", "10.0.0.1", "--log-ms", "1000", "--max-wait-us", "250000",
                     "--allow-swap", "--no-dropout", "--norm", "instance", "--designs",
                     "diffeq1,diffeq2"}),
            "");
  EXPECT_EQ(f.replicas, -3);
  EXPECT_EQ(f.width, Index{9000000000});
  EXPECT_EQ(f.port, 65535);
  EXPECT_EQ(f.cache, 0u);
  EXPECT_EQ(f.seed, 18446744073709551615ull);
  EXPECT_EQ(f.lr, 2e-3f);
  EXPECT_EQ(f.slo, 0.25);
  EXPECT_EQ(f.host, "10.0.0.1");
  EXPECT_EQ(f.log_period, std::chrono::milliseconds(1000));
  EXPECT_EQ(f.max_wait, std::chrono::microseconds(250000));
  EXPECT_TRUE(f.swap);
  EXPECT_FALSE(f.dropout);
  EXPECT_EQ(f.norm, Norm::kInstance);
  EXPECT_EQ(f.designs, (std::vector<std::string>{"diffeq1", "diffeq2"}));
}

TEST(Flags, FloatsRoundLikeAtof) {
  for (const char* text : {"1e-3", "2e-3", "0.5", "50", "0.1", "0.15", "3.14159265",
                           "123456789", "0.000123456789", "-7.5e-10"}) {
    float parsed = 0.0f;
    ASSERT_TRUE(parse_value(text, parsed)) << text;
    EXPECT_EQ(parsed, static_cast<float>(std::atof(text))) << text;
  }
}

TEST(Flags, MalformedValuesAreRejectedNamingTheFlagAndValue) {
  const std::vector<std::vector<const char*>> bad = {
      {"--port", "70000"},   {"--port", "abc"},   {"--port", "7437x"},
      {"--cache", "-1"},     {"--seed", "-1"},    {"--replicas", "1e3"},
      {"--width", ""},       {"--slo", "nan"},    {"--slo", "inf"},
      {"--lr", "1e39"},      {"--log-ms", "1.5"}, {"--norm", "layer"},
  };
  for (const auto& args : bad) {
    Fixture f;
    const std::string error = f.parse(args);
    EXPECT_NE(error.find(args[0]), std::string::npos) << error;
    EXPECT_NE(error.find(std::string("'") + args[1] + "'"), std::string::npos) << error;
  }
  Fixture f;
  EXPECT_NE(f.parse({"--port", "70000"}).find("[0, 65535]"), std::string::npos);
  EXPECT_EQ(f.port, 7433) << "a rejected value must leave the field untouched";
}

TEST(Flags, MissingValueAndUnknownFlagAreErrors) {
  Fixture f;
  EXPECT_EQ(f.parse({"--seed", "3", "--port"}), "missing value for --port");
  EXPECT_NE(f.parse({"--bogus"}).find("unknown flag --bogus"), std::string::npos);
  EXPECT_NE(f.parse({"7433"}).find("unknown flag 7433"), std::string::npos);
}

TEST(Flags, GivenReportsOnlyWhatTheCommandLineSet) {
  Fixture f;
  ASSERT_EQ(f.parse({"--lr", "1e-3", "--allow-swap"}), "");
  EXPECT_TRUE(f.flags.given("--lr"));
  EXPECT_TRUE(f.flags.given("--allow-swap"));
  EXPECT_FALSE(f.flags.given("--seed"));
  EXPECT_FALSE(f.flags.given("--help"));
  EXPECT_THROW(f.flags.given("--no-such-flag"), CheckError);

  Fixture h;
  ASSERT_EQ(h.parse({"--seed", "5", "-h", "--bogus"}), "");
  EXPECT_TRUE(h.flags.given("--help"));
  EXPECT_EQ(h.seed, 5u);
}

TEST(Flags, UsageShowsRegistrationValuesAsDefaults) {
  Fixture f;
  const std::string usage = f.flags.usage();
  EXPECT_EQ(usage.rfind("tool — a test tool\n\nusage: tool [options]\n", 0), 0u) << usage;
  for (const char* line : {"--port N ", "TCP port (default 7433)\n", "(default 127.0.0.1)\n",
                           "learning rate (default 0.001)\n", "log period (default 2000)\n",
                           "normalisation family (default batch)\n", "accept swaps\n"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  }
  // Presence flags show no default; parsing does not change the text.
  ASSERT_EQ(f.parse({"--port", "1"}), "");
  EXPECT_EQ(f.flags.usage(), usage);
}

TEST(Flags, RegisteringANameTwiceThrows) {
  Fixture f;
  EXPECT_THROW(f.flags.add("--port N", f.port, "again"), CheckError);
}

TEST(Flags, EnvOrParsesTheSameWay) {
  constexpr const char* kName = "PAINTPLACE_TEST_FLAGS_ENV";
  ::unsetenv(kName);
  EXPECT_EQ(env_or<Index>(kName, 5), 5);
  ::setenv(kName, "12", 1);
  EXPECT_EQ(env_or<Index>(kName, 5), 12);
  EXPECT_EQ(env_or(kName, 0.5), 12.0);
  ::setenv(kName, "12x", 1);
  try {
    (void)env_or<Index>(kName, 5);
    ADD_FAILURE() << "malformed value accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(kName), std::string::npos) << e.what();
  }
  ::unsetenv(kName);
}

}  // namespace
}  // namespace paintplace
