// run_scenarios: drives .spec anomaly scenarios against every registered
// protocol and asserts their expect blocks (docs/SCENARIOS.md has the DSL
// reference, scenarios/ the seeded anomaly zoo).
//
//   run_scenarios [flags] <file.spec | directory>...
//
//   --json            emit the machine-readable report (schema: common/
//                     report.h, bench "scenarios") on stdout; human output
//                     moves to stderr. CI publishes it as
//                     REPORT_scenarios.json.
//   --chaos           replay every explicit permutation across crash/
//                     recover cycles (CEP + WAL, every crash point).
//   --seed=N          failpoint-registry seed for the chaos runs (default
//                     1) — pin it to replay a failing schedule exactly.
//   --crash-point=K   restrict the chaos sweep to crash point K (after K
//                     injections) instead of every point — the
//                     reproduce-one-failure knob. Requires --chaos.
//   --protocol=NAME   run only NAME (repeatable). Default: all six.
//   --print-expect    print the observed outcome of every permutation as
//                     an authorable expect block (spec-authoring aid).
//   --verbose         print per-step traces of every explicit run.
//
// Exit status: 0 iff every spec parsed and every assertion held.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/report.h"
#include "common/status.h"
#include "common/strings.h"
#include "protocol/registry.h"
#include "scenario/parser.h"
#include "scenario/runner.h"

namespace nonserial {
namespace scenario {
namespace {

struct Flags {
  bool json = false;
  bool chaos = false;
  bool print_expect = false;
  bool verbose = false;
  uint64_t seed = 1;
  int crash_point = -1;
  std::vector<std::string> protocols;
  std::vector<std::string> paths;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--chaos] [--seed=N] [--crash-point=K] "
               "[--protocol=NAME]... [--print-expect] [--verbose] "
               "<file.spec | dir>...\n",
               argv0);
  return 2;
}

/// Expands each path argument: directories contribute their *.spec files
/// (sorted), files contribute themselves.
StatusOr<std::vector<std::string>> CollectSpecFiles(
    const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      std::vector<std::string> in_dir;
      for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
        if (entry.path().extension() == ".spec") {
          in_dir.push_back(entry.path().string());
        }
      }
      if (ec) {
        return Status::InvalidArgument(
            StrCat("cannot list directory '", path, "': ", ec.message()));
      }
      std::sort(in_dir.begin(), in_dir.end());
      files.insert(files.end(), in_dir.begin(), in_dir.end());
      continue;
    }
    if (!std::filesystem::is_regular_file(path, ec)) {
      return Status::InvalidArgument(
          StrCat("no such file or directory: '", path, "'"));
    }
    files.push_back(path);
  }
  if (files.empty()) {
    return Status::InvalidArgument("no .spec files found under the given paths");
  }
  return files;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::InvalidArgument(StrCat("cannot open '", path, "'"));
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

int Run(const Flags& flags) {
  FILE* human = flags.json ? stderr : stdout;
  StatusOr<std::vector<std::string>> files = CollectSpecFiles(flags.paths);
  if (!files.ok()) {
    std::fprintf(stderr, "run_scenarios: %s\n",
                 files.status().message().c_str());
    return 2;
  }

  ReportBuilder report("scenarios");
  report.config()["protocols"] = Json::Array();
  std::vector<std::string> protocols = flags.protocols;
  if (protocols.empty()) {
    for (ProtocolKind kind : AllProtocolKinds()) {
      protocols.push_back(ProtocolKindName(kind));
    }
  }
  for (const std::string& protocol : protocols) {
    report.config()["protocols"].Push(protocol);
  }
  report.config()["chaos"] = flags.chaos;
  report.config()["specs"] = static_cast<int64_t>(files->size());

  SuiteOptions options;
  options.protocols = flags.protocols;
  options.chaos = flags.chaos;
  options.verbose = flags.verbose;
  options.print_expect = flags.print_expect;
  options.chaos_seed = flags.seed;
  options.chaos_crash_point = flags.crash_point;

  int failed_specs = 0;
  int total_runs = 0;
  for (const std::string& path : *files) {
    StatusOr<std::string> text = ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "run_scenarios: %s\n",
                   text.status().message().c_str());
      ++failed_specs;
      continue;
    }
    StatusOr<ScenarioSpec> spec = ParseScenario(*text);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(),
                   spec.status().message().c_str());
      Json row = Json::Object();
      row["name"] = path;
      row["ok"] = false;
      row["parse_error"] = spec.status().message();
      report.AddResult(std::move(row));
      ++failed_specs;
      continue;
    }
    StatusOr<SpecResult> result = RunSpec(*spec, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   result.status().message().c_str());
      ++failed_specs;
      continue;
    }
    total_runs += result->explicit_runs + result->sweep_runs;
    std::fprintf(human, "%-28s %-10s %3d runs%s%s  %s\n",
                 result->name.c_str(),
                 spec->figure2_class.empty() ? "-"
                                             : spec->figure2_class.c_str(),
                 result->explicit_runs + result->sweep_runs,
                 flags.chaos
                     ? StrCat(" ", result->chaos_crash_points, " crashes")
                           .c_str()
                     : "",
                 result->sweep_truncated ? " (sweep truncated)" : "",
                 result->ok() ? "PASS" : "FAIL");
    for (const std::string& line : result->printed) {
      std::fprintf(human, "  %s\n", line.c_str());
    }
    for (const std::string& line : result->failures) {
      std::fprintf(human, "  FAIL: %s\n", line.c_str());
    }
    if (!result->ok()) ++failed_specs;
    report.AddResult(std::move(result->row));
  }

  report.SetOk(failed_specs == 0);
  report.config()["total_runs"] = static_cast<int64_t>(total_runs);
  if (flags.json) std::printf("%s\n", report.Dump().c_str());
  std::fprintf(human, "%zu spec(s), %d run(s), %d failing spec(s)\n",
               files->size(), total_runs, failed_specs);
  return failed_specs == 0 ? 0 : 1;
}

}  // namespace
}  // namespace scenario
}  // namespace nonserial

int main(int argc, char** argv) {
  nonserial::scenario::Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      flags.json = true;
    } else if (arg == "--chaos") {
      flags.chaos = true;
    } else if (arg == "--print-expect") {
      flags.print_expect = true;
    } else if (arg == "--verbose") {
      flags.verbose = true;
    } else if (arg.rfind("--protocol=", 0) == 0) {
      flags.protocols.push_back(arg.substr(std::strlen("--protocol=")));
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags.seed = std::strtoull(arg.c_str() + std::strlen("--seed="),
                                 nullptr, 10);
    } else if (arg.rfind("--crash-point=", 0) == 0) {
      flags.crash_point = std::atoi(arg.c_str() + std::strlen("--crash-point="));
      if (flags.crash_point < 0) return nonserial::scenario::Usage(argv[0]);
    } else if (arg == "--help" || (!arg.empty() && arg[0] == '-')) {
      return nonserial::scenario::Usage(argv[0]);
    } else {
      flags.paths.push_back(arg);
    }
  }
  if (flags.paths.empty()) return nonserial::scenario::Usage(argv[0]);
  if (flags.crash_point >= 0 && !flags.chaos) {
    std::fprintf(stderr, "run_scenarios: --crash-point requires --chaos\n");
    return 2;
  }
  return nonserial::scenario::Run(flags);
}
