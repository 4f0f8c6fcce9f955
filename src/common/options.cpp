#include "common/options.h"

#include "common/log.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace mrs {
namespace {

/// A malformed numeric option value ("--mrs-workers=4x") must not silently
/// run with the default: warn with the offending text and count it so the
/// regression is visible in metrics even when logs are discarded.
void ReportOptionParseError(std::string_view name, const std::string& value,
                            const char* expected) {
  static obs::Counter* parse_errors =
      obs::Registry::Instance().GetCounter("mrs.options.parse_errors");
  parse_errors->Inc();
  MRS_LOG(kWarning, "options")
      << "option --" << name << " has malformed " << expected << " value '"
      << value << "'; using the default";
}

}  // namespace

bool Options::Has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

std::string Options::GetString(std::string_view name,
                               std::string_view dflt) const {
  auto it = values_.find(name);
  return it == values_.end() ? std::string(dflt) : it->second;
}

int64_t Options::GetInt(std::string_view name, int64_t dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  std::optional<int64_t> parsed = ParseInt64(it->second);
  if (!parsed.has_value()) {
    ReportOptionParseError(name, it->second, "integer");
    return dflt;
  }
  return *parsed;
}

double Options::GetDouble(std::string_view name, double dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  std::optional<double> parsed = ParseDouble(it->second);
  if (!parsed.has_value()) {
    ReportOptionParseError(name, it->second, "number");
    return dflt;
  }
  return *parsed;
}

bool Options::GetBool(std::string_view name, bool dflt) const {
  auto it = values_.find(name);
  if (it == values_.end()) return dflt;
  const std::string& v = it->second;
  return v == "1" || EqualsIgnoreCase(v, "true") || EqualsIgnoreCase(v, "yes") ||
         v.empty();  // bare switch
}

void Options::Set(std::string name, std::string value) {
  values_[std::move(name)] = std::move(value);
}

void OptionParser::Add(std::string name, char short_name, bool takes_value,
                       std::string help, std::string dflt) {
  decls_.push_back(Decl{std::move(name), short_name, takes_value,
                        std::move(help), std::move(dflt)});
}

const OptionParser::Decl* OptionParser::Find(std::string_view name) const {
  for (const Decl& d : decls_) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

const OptionParser::Decl* OptionParser::FindShort(char c) const {
  for (const Decl& d : decls_) {
    if (d.short_name == c) return &d;
  }
  return nullptr;
}

Result<Options> OptionParser::Parse(const std::vector<std::string>& argv) const {
  Options opts;
  // Seed defaults first so GetString sees declared defaults.
  for (const Decl& d : decls_) {
    if (d.takes_value && !d.dflt.empty()) opts.Set(d.name, d.dflt);
  }
  size_t i = 0;
  for (; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    if (arg == "--") {
      ++i;
      break;
    }
    if (StartsWith(arg, "--")) {
      std::string_view body = std::string_view(arg).substr(2);
      std::string_view name = body;
      std::optional<std::string_view> inline_value;
      if (size_t eq = body.find('='); eq != std::string_view::npos) {
        name = body.substr(0, eq);
        inline_value = body.substr(eq + 1);
      }
      const Decl* d = Find(name);
      if (d == nullptr) {
        return InvalidArgumentError("unknown option --" + std::string(name));
      }
      if (!d->takes_value) {
        if (inline_value.has_value()) {
          return InvalidArgumentError("option --" + d->name +
                                      " does not take a value");
        }
        opts.Set(d->name, "1");
      } else if (inline_value.has_value()) {
        opts.Set(d->name, std::string(*inline_value));
      } else {
        if (i + 1 >= argv.size()) {
          return InvalidArgumentError("option --" + d->name +
                                      " requires a value");
        }
        opts.Set(d->name, argv[++i]);
      }
    } else if (arg.size() >= 2 && arg[0] == '-' && arg != "-") {
      // Short options; a value-taking short option consumes the rest of the
      // token or the next token ("-I serial" or "-Iserial").
      std::string_view body = std::string_view(arg).substr(1);
      for (size_t j = 0; j < body.size(); ++j) {
        const Decl* d = FindShort(body[j]);
        if (d == nullptr) {
          return InvalidArgumentError(std::string("unknown option -") + body[j]);
        }
        if (!d->takes_value) {
          opts.Set(d->name, "1");
          continue;
        }
        if (j + 1 < body.size()) {
          opts.Set(d->name, std::string(body.substr(j + 1)));
        } else {
          if (i + 1 >= argv.size()) {
            return InvalidArgumentError(std::string("option -") + body[j] +
                                        " requires a value");
          }
          opts.Set(d->name, argv[++i]);
        }
        break;
      }
    } else {
      break;  // first positional argument
    }
  }
  for (; i < argv.size(); ++i) opts.mutable_args()->push_back(argv[i]);
  return opts;
}

Result<Options> OptionParser::Parse(int argc, const char* const* argv) const {
  std::vector<std::string> v;
  v.reserve(static_cast<size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) v.emplace_back(argv[i]);
  return Parse(v);
}

std::string OptionParser::Usage(std::string_view program) const {
  std::string out = "usage: " + std::string(program) + " [options] [args...]\n";
  for (const Decl& d : decls_) {
    out += "  ";
    if (d.short_name != 0) {
      out += '-';
      out += d.short_name;
      out += ", ";
    } else {
      out += "    ";
    }
    out += "--" + d.name;
    if (d.takes_value) out += " <value>";
    out += "\n        " + d.help;
    if (!d.dflt.empty()) out += " (default: " + d.dflt + ")";
    out += '\n';
  }
  return out;
}

void AddStandardMrsOptions(OptionParser* parser) {
  parser->Add("mrs-impl", 'I', true,
              "execution implementation: serial, mockparallel, thread, "
              "masterslave, master, slave, bypass",
              "serial");
  parser->Add("mrs-master", 'M', true,
              "master address host:port (slave implementation only)");
  parser->Add("mrs-port", 'P', true,
              "fixed master port; 0 picks an ephemeral port", "0");
  parser->Add("mrs-num-slaves", 'N', true,
              "number of in-process slaves for the masterslave "
              "implementation",
              "2");
  parser->Add("mrs-tasks-per-slave", 0, true,
              "map task multiplier per slave", "2");
  parser->Add("mrs-workers", 'W', true,
              "worker threads for the thread implementation; 0 uses "
              "hardware concurrency",
              "0");
  parser->Add("mrs-tmpdir", 'T', true,
              "mockparallel: directory for the task attempts' spill files "
              "(default: a fresh temporary directory)");
  parser->Add("mrs-seed", 'S', true,
              "program random seed for the random(...) stream API", "42");
  parser->Add("mrs-output", 'o', true,
              "write final text records to this file instead of stdout");
  parser->Add("mrs-port-file", 0, true,
              "master: write host:port here once listening (the run-script "
              "handshake)");
  parser->Add("mrs-shared-dir", 0, true,
              "slaves publish buckets as files in this shared directory "
              "instead of serving them over HTTP (fault-tolerant mode)");
  parser->Add("mrs-memory-budget", 0, true,
              "per-process cap on in-memory bucket bytes (e.g. 64M, 1G); "
              "buckets over budget spill to disk as sorted runs. 0 = "
              "unlimited",
              "0");
  parser->Add("mrs-ping-interval", 0, true,
              "slave heartbeat interval in seconds (reported to the master "
              "at signin, which scales its death threshold accordingly)",
              "2");
  parser->Add("mrs-missed-ping-limit", 0, true,
              "master: declare a slave lost after this many missed "
              "heartbeats (scaled by the slave's reported ping interval)",
              "5");
  parser->Add("mrs-slave-timeout", 0, true,
              "master: floor in seconds of silence before a slave is "
              "declared lost",
              "15");
  parser->Add("mrs-drain-timeout", 0, true,
              "master: seconds a draining slave may await release before "
              "it is declared gone",
              "10");
  parser->Add("mrs-speculation-quantile", 0, true,
              "master: runtime quantile past which a running task gets a "
              "speculative backup attempt; 0 disables speculation",
              "0.9");
  parser->Add("mrs-quarantine-failures", 0, true,
              "master: quarantine a slave after this many consecutive task "
              "failures; 0 disables quarantine",
              "3");
  parser->Add("mrs-probation-seconds", 0, true,
              "master: how long a quarantined slave waits before being "
              "re-admitted to the healthy pool",
              "5");
  parser->Add("mrs-timing", 0, false,
              "print wall-time for the Run method to stderr");
  parser->Add("trace-out", 0, true,
              "write per-task trace spans as Chrome trace_event JSON to "
              "this file on exit (load via chrome://tracing)");
  parser->Add("mrs-no-metrics", 0, false,
              "disable the metrics registry hot path (observability kill "
              "switch)");
  parser->Add("mrs-verbose", 'v', false, "enable info logging");
  parser->Add("mrs-debug", 0, false, "enable debug logging");
  parser->Add("help", 'h', false, "show this help");
}

}  // namespace mrs
