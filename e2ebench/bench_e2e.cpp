// bench_e2e — one end-to-end benchmark for the placement -> forecast loop.
//
//   bench_e2e --workload {live_anneal|net_open|explore_sweep|train|all}
//             [--seed S] [--seconds T] [--trace [0|1]] [--smoke] [--out DIR]
//
// Every input is generated from --seed. Each workload measures for --seconds
// (default 15), prints every metric as `workload metric value unit`, runs its
// output checks and ends with `attempted`, `failed`, `failed_frac` and
// `correct` lines; the exit status is 1 when a check failed or an op
// errored (a request shed under load counts as failed without failing the
// run). BENCH_e2e.json is written into --out (default: the working
// directory). `all` runs each workload in a child process of its own, one
// after another, so peak RSS, the pack cache, the metrics registry and the
// tracer stay separate per workload.
//
// --trace runs a workload with obs::Tracer on for its last two thirds and
// reports the per-layer metrics instead; end-to-end numbers come only from
// untraced runs. --smoke shrinks the inputs to ~1/20 scale (1 s per
// workload unless --seconds is given), with every check still on.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "bench/bench_json.h"
#include "common/parallel.h"
#include "obs/build_info.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "workloads.h"

using namespace e2e;

namespace {

using TaggedMetric = std::pair<std::string, Metric>;  // (workload, metric)

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload {live_anneal|net_open|explore_sweep|train|all}\n"
               "                 [--seed S] [--seconds T] [--trace [0|1]] [--smoke] [--out DIR]\n",
               why);
  std::exit(2);
}

struct Cli {
  Options opt;
  bool child = false;  ///< run by `all`: the parent writes the report
};

Cli parse(int argc, char** argv) {
  Cli cli;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      cli.opt.workload = value();
    } else if (a == "--seed") {
      cli.opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cli.opt.seconds = std::atof(value().c_str());
      seconds_given = true;
    } else if (a == "--trace") {
      cli.opt.trace = true;
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 || std::strcmp(argv[i + 1], "1") == 0)) {
        cli.opt.trace = value() == "1";
      }
    } else if (a == "--smoke") {
      cli.opt.smoke = true;
    } else if (a == "--out") {
      cli.opt.out_dir = value();
    } else if (a == "--child") {
      cli.child = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (cli.opt.smoke) {
    if (cli.opt.workload.empty()) cli.opt.workload = "all";
    if (!seconds_given) cli.opt.seconds = 1.0;
  }
  if (cli.opt.workload.empty()) usage("--workload is required");
  if (!(cli.opt.seconds > 0.0 && cli.opt.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  bool known = cli.opt.workload == "all";
  for (const Workload& w : workloads()) known = known || cli.opt.workload == w.name;
  if (!known) usage(("unknown workload " + cli.opt.workload).c_str());
  return cli;
}

void write_report(const Options& opt, const std::vector<TaggedMetric>& metrics) {
  bench::BenchReport report("e2e");
  report.meta(bench::jstr("workload", opt.workload));
  report.meta(bench::jint("seed", static_cast<long long>(opt.seed)));
  report.meta(bench::jnum("seconds", opt.seconds));
  report.meta(bench::jbool("trace", opt.trace));
  report.meta(bench::jbool("smoke", opt.smoke));
  report.meta(bench::jint("nproc", std::thread::hardware_concurrency()));
  report.meta(bench::jint("pool_workers", parallel_workers()));
  report.meta(bench::jstr("backend", backend::active_backend().name()));
  report.meta(bench::jstr("git_sha", obs::build_info().git_sha));
  report.meta(bench::jbool("native_kernel", obs::build_info().native_kernel));
  for (const auto& [workload, m] : metrics) {
    report.sample({bench::jstr("workload", workload), bench::jstr("metric", m.name),
                   bench::jnum("value", m.value), bench::jstr("unit", m.unit)});
  }
  report.write(opt.out_dir);
}

int run_one(const Cli& cli) {
  // Info-level lines go to stdout; keep it to metrics and warnings.
  obs::LogConfig log = obs::Log::instance().config();
  log.min_level = obs::LogLevel::kWarn;
  obs::Log::instance().configure(log);

  Report rep(cli.opt.workload);
  std::printf("# %s: seed %llu, %.3g s, %s%s; backend %s, %d pool workers\n",
              cli.opt.workload.c_str(), static_cast<unsigned long long>(cli.opt.seed),
              cli.opt.seconds, cli.opt.trace ? "traced" : "untraced",
              cli.opt.smoke ? ", smoke" : "", backend::active_backend().name(),
              parallel_workers());
  for (const Workload& w : workloads()) {
    if (cli.opt.workload != w.name) continue;
    try {
      w.run(cli.opt, rep);
    } catch (const std::exception& e) {
      rep.check(false, std::string("workload threw: ") + e.what());
    }
  }
  const bool ok = rep.finish();
  if (!cli.child) {
    std::vector<TaggedMetric> tagged;
    for (const Metric& m : rep.metrics()) tagged.emplace_back(cli.opt.workload, m);
    write_report(cli.opt, tagged);
  }
  return ok ? 0 : 1;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  return out + "'";
}

/// Runs every workload in a child process of its own, echoing its output and
/// collecting its metric lines for the combined report.
int run_all(const Cli& cli) {
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) usage("cannot locate /proc/self/exe");
  self[n] = '\0';

  std::vector<TaggedMetric> metrics;
  bool all_ok = true;
  for (const Workload& w : workloads()) {
    char seconds[32];
    std::snprintf(seconds, sizeof(seconds), "%.17g", cli.opt.seconds);
    const std::string cmd = shell_quote(self) + " --workload " + w.name + " --seed " +
                            std::to_string(cli.opt.seed) + " --seconds " + seconds +
                            " --trace " + (cli.opt.trace ? "1" : "0") +
                            (cli.opt.smoke ? " --smoke" : "") + " --out " +
                            shell_quote(cli.opt.out_dir) + " --child";
    std::fflush(stdout);
    std::FILE* child = ::popen(cmd.c_str(), "r");
    if (child == nullptr) usage("cannot start a workload process");
    char line[4096];
    while (std::fgets(line, sizeof(line), child) != nullptr) {
      std::fputs(line, stdout);
      std::istringstream fields(line);
      std::string workload, name, unit, extra;
      double value = 0.0;
      if (fields >> workload >> name >> value >> unit && !(fields >> extra) && workload == w.name) {
        metrics.emplace_back(workload, Metric{name, value, unit});
      }
    }
    const int status = ::pclose(child);
    const bool ok = status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!ok) std::printf("# %s FAILED (exit status %d)\n", w.name, status);
    all_ok = all_ok && ok;
  }
  write_report(cli.opt, metrics);
  std::printf("# bench_e2e: %s\n", all_ok ? "all workloads passed" : "a workload FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);
  // The tracer is a function-local static. Built before the worker pool, it
  // is destroyed after it at exit, so pool threads that traced can still
  // hand their rings back to it as they end.
  obs::Tracer::instance();
  const Cli cli = parse(argc, argv);
  return cli.opt.workload == "all" ? run_all(cli) : run_one(cli);
}
