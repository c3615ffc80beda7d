#include "util/args.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <optional>
#include <sstream>
#include <type_traits>

namespace gapsp {
namespace {

std::string dashed(std::string_view name) {
  std::string out("--");
  return out.append(name);
}

const Flag* find_flag(const Command& cmd, std::string_view name) {
  for (const Flag& f : cmd.flags) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::vector<std::string_view> one_of_values(const Flag& f) {
  std::vector<std::string_view> out;
  std::string_view rest = f.dflt;
  for (auto bar = rest.find('|'); bar != rest.npos; bar = rest.find('|')) {
    out.push_back(rest.substr(0, bar));
    rest.remove_prefix(bar + 1);
  }
  out.push_back(rest);
  return out;
}

/// Parses all of `text` as a T: strtoll/strtod would skip leading blanks
/// and stop at trailing junk.
template <class T>
T parse_whole(std::string_view text, const std::string& what) {
  constexpr bool kInt = std::is_integral_v<T>;
  const std::string s(text);
  char* end = nullptr;
  errno = 0;
  T v;
  if constexpr (kInt) {
    v = std::strtoll(s.c_str(), &end, 10);
  } else {
    v = std::strtod(s.c_str(), &end);
  }
  if (errno == ERANGE || s.empty() ||
      std::isspace(static_cast<unsigned char>(s[0])) ||
      end != s.c_str() + s.size() || !std::isfinite(static_cast<double>(v))) {
    throw Error(what + (kInt ? " expects an integer" : " expects a number") +
                ", got '" + s + "'");
  }
  return v;
}

std::string bounds_text(const Flag& f) {
  std::ostringstream os;
  os << std::setprecision(15) << (std::isinf(f.hi) ? ">= " : "") << f.lo;
  if (!std::isinf(f.hi)) os << ".." << f.hi;
  return os.str();
}

void check_value(const Flag& f, const std::optional<std::string>& v) {
  const std::string what = dashed(f.name);
  if (f.kind == FlagKind::kSwitch) {
    if (v) throw Error("switch " + what + " takes no value, got '" + *v + "'");
    return;
  }
  if (!v) throw Error(what + " expects a value");
  if (f.kind == FlagKind::kOneOf) {
    const auto values = one_of_values(f);
    if (std::find(values.begin(), values.end(), *v) == values.end()) {
      throw Error(what + " must be one of " + std::string(f.dflt) + ", got '" +
                  *v + "'");
    }
  } else if (f.kind != FlagKind::kText) {
    const double x = f.kind == FlagKind::kInteger
                         ? static_cast<double>(parse_integer(*v, what))
                         : parse_whole<double>(*v, what);
    if (!(x >= f.lo && x <= f.hi)) {
      throw Error(what + " must be " + bounds_text(f) + ", got " + *v);
    }
  }
}

}  // namespace

long long parse_integer(std::string_view text, const std::string& what) {
  return parse_whole<long long>(text, what);
}

Args::Args(const Command& cmd, int argc, const char* const* argv, int first)
    : cmd_(cmd) {
  std::map<std::string, std::optional<std::string>, std::less<>> raw;
  std::string unknown, strays;
  for (int i = first; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      strays += " '" + tok + "'";
      continue;
    }
    tok.erase(0, 2);
    std::optional<std::string> value;
    if (const auto eq = tok.find('='); eq != std::string::npos) {
      value = tok.substr(eq + 1);
      tok.erase(eq);
    }
    if (tok.empty()) throw Error("empty flag name");
    const Flag* f = find_flag(cmd, tok);
    // A valued flag takes the next token unless it is a flag; so does an
    // unknown one, so that its value is not reported as a stray argument.
    if (!value && (f == nullptr || f->kind != FlagKind::kSwitch) &&
        i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    if (f == nullptr) {
      unknown += " --" + tok;
    } else if (!raw.emplace(tok, std::move(value)).second) {
      throw Error("repeated flag --" + tok);
    }
  }
  if (!unknown.empty()) {
    std::string sub(cmd.name);
    throw UsageError("unknown " + sub + (sub.empty() ? "" : " ") +
                     "flag(s):" + unknown);
  }
  if (!strays.empty()) throw UsageError("unexpected argument(s):" + strays);
  for (const auto& [name, value] : raw) {
    check_value(*find_flag(cmd, name), value);
    given_.emplace(name, value.value_or(""));
  }
}

const Flag& Args::flag(std::string_view name, FlagKind kind) const {
  const Flag* f = find_flag(cmd_, name);
  const bool as_text = kind == FlagKind::kText && f != nullptr &&
                       f->kind == FlagKind::kOneOf;
  GAPSP_CHECK(f != nullptr && (f->kind == kind || as_text),
              dashed(name) + " is not a flag of that kind here");
  return *f;
}

std::string Args::given_or_default(const Flag& f) const {
  if (const auto it = given_.find(f.name); it != given_.end()) {
    return it->second;
  }
  if (f.kind == FlagKind::kOneOf) return std::string(one_of_values(f).front());
  GAPSP_CHECK(f.kind == FlagKind::kText || !f.dflt.empty(),
              dashed(f.name) + " has no default; check has()");
  return std::string(f.dflt);
}

bool Args::has(std::string_view name) const {
  GAPSP_CHECK(find_flag(cmd_, name) != nullptr,
              dashed(name) + " is not a flag here");
  return given_.find(name) != given_.end();
}

std::string Args::text(std::string_view name) const {
  return given_or_default(flag(name, FlagKind::kText));
}

long long Args::integer(std::string_view name) const {
  return parse_integer(given_or_default(flag(name, FlagKind::kInteger)),
                       dashed(name));
}

double Args::number(std::string_view name) const {
  return parse_whole<double>(given_or_default(flag(name, FlagKind::kNumber)),
                             dashed(name));
}

std::size_t Args::choice(std::string_view name) const {
  const Flag& f = flag(name, FlagKind::kOneOf);
  const auto values = one_of_values(f);
  return static_cast<std::size_t>(
      std::find(values.begin(), values.end(), given_or_default(f)) -
      values.begin());
}

std::string usage(std::string_view prog, const Command& cmd) {
  static constexpr std::size_t kHelpColumn = 28;
  // Indexed by FlagKind.
  static constexpr const char* kMetavar[] = {"", " N", " X", " S", " "};
  std::ostringstream os;
  os << "usage: " << prog << (cmd.name.empty() ? "" : " ") << cmd.name
     << " [flags]\n  " << cmd.help << "\nflags:\n";
  for (const Flag& f : cmd.flags) {
    std::string head("  --");
    head.append(f.name).append(kMetavar[static_cast<int>(f.kind)]);
    const bool one_of = f.kind == FlagKind::kOneOf;
    if (one_of) head.append(f.dflt);
    head.append(head.size() < kHelpColumn ? kHelpColumn - head.size() : 1, ' ');
    os << head << f.help;
    const bool bounded =
        f.kind == FlagKind::kInteger || f.kind == FlagKind::kNumber;
    const auto dflt = one_of ? one_of_values(f).front() : f.dflt;
    if (!dflt.empty()) os << " (default " << dflt << (bounded ? "; " : ")");
    if (bounded) os << (dflt.empty() ? " (" : "") << bounds_text(f) << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace gapsp
