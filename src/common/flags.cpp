#include "common/flags.h"

#include <algorithm>
#include <cstdlib>

namespace paintplace {

Flags::Flags(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

Flags& Flags::add(std::string_view name, bool& field, std::string help, bool value) {
  return add(
      name,
      [&field, value](std::string_view) {
        field = value;
        return true;
      },
      "", std::move(help));
}

Flags& Flags::add(std::string_view spec, Setter set, std::string shown, std::string help,
                  std::string expected) {
  const std::size_t space = spec.find(' ');
  Flag flag;
  flag.name = std::string(spec.substr(0, space));
  if (space != std::string_view::npos) flag.metavar = std::string(spec.substr(space + 1));
  PP_CHECK_MSG(flag.name.rfind("--", 0) == 0 && flag.name != "--help",
               "bad flag spelling '" << spec << "'");
  PP_CHECK_MSG(find(flag.name) == nullptr, "flag " << flag.name << " registered twice");
  flag.help = std::move(help);
  flag.shown = std::move(shown);
  flag.expected = std::move(expected);
  flag.set = std::move(set);
  flags_.push_back(std::move(flag));
  return *this;
}

const Flags::Flag* Flags::find(std::string_view name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::string Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      return "";
    }
    const auto flag = std::find_if(flags_.begin(), flags_.end(),
                                   [arg](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) return "unknown flag " + std::string(arg) + " (try --help)";
    std::string_view value;
    if (!flag->metavar.empty()) {
      if (i + 1 >= argc) return "missing value for " + flag->name;
      value = argv[++i];
    }
    if (!flag->set(value)) {
      std::string error = "invalid value '" + std::string(value) + "' for " + flag->name;
      if (!flag->expected.empty()) error += " (expected " + flag->expected + ")";
      return error;
    }
    flag->given = true;
  }
  return "";
}

void Flags::parse_or_exit(int argc, const char* const* argv) {
  const std::string error = parse(argc, argv);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), error.c_str());
    std::exit(2);
  }
  if (help_) {
    std::fputs(usage().c_str(), stdout);
    std::exit(0);
  }
}

bool Flags::given(std::string_view name) const {
  if (name == "--help") return help_;
  const Flag* flag = find(name);
  PP_CHECK_MSG(flag != nullptr, "no flag " << name << " is registered");
  return flag->given;
}

std::string Flags::usage() const {
  std::size_t width = 0;
  for (const Flag& f : flags_) {
    width = std::max(width, f.name.size() + (f.metavar.empty() ? 0 : f.metavar.size() + 1));
  }
  const std::string indent(width + 4, ' ');
  std::string out = program_ + " — " + summary_ + "\n\nusage: " + program_ + " [options]\n";
  for (const Flag& f : flags_) {
    std::string spec = f.metavar.empty() ? f.name : f.name + " " + f.metavar;
    spec.resize(width, ' ');
    std::string help = f.help;
    if (!f.shown.empty()) help += " (default " + f.shown + ")";
    for (std::size_t at = help.find('\n'); at != std::string::npos; at = help.find('\n', at + 1)) {
      help.insert(at + 1, indent);
    }
    out += "  " + spec + "  " + help + "\n";
  }
  return out;
}

}  // namespace paintplace
