#include "util/options.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/strings.hpp"

namespace e2efa {

namespace {

template <class T>
std::optional<T> parse_whole(std::string_view tok) {
  // from_chars takes no sign prefix; strtod and istream accepted "+5".
  if (tok.size() > 1 && tok[0] == '+' && tok[1] != '+' && tok[1] != '-')
    tok.remove_prefix(1);
  if (tok.empty()) return std::nullopt;
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

/// A setter that parses its value with `parse`, requires `ok`, and
/// otherwise reports `want` and the rejected value.
template <class T, class Ok>
OptionTable::Setter number(T* out, std::optional<T> (*parse)(std::string_view),
                           Ok ok, std::string want) {
  return [=](const std::string& v) {
    const auto x = parse(v);
    if (!x || !ok(*x)) return want + ", got '" + v + "'";
    *out = *x;
    return std::string();
  };
}

}  // namespace

std::optional<double> parse_double(std::string_view tok) {
  const auto v = parse_whole<double>(tok);
  if (!v || !std::isfinite(*v)) return std::nullopt;
  return v;
}

std::optional<int> parse_int(std::string_view tok) { return parse_whole<int>(tok); }

std::optional<std::uint64_t> parse_uint64(std::string_view tok) {
  return parse_whole<std::uint64_t>(tok);
}

std::optional<std::pair<std::string_view, std::string_view>> split_pair(
    std::string_view s, char sep) {
  const auto pos = s.find(sep);
  if (pos == std::string_view::npos) return std::nullopt;
  return std::make_pair(s.substr(0, pos), s.substr(pos + 1));
}

OptionTable::OptionTable(std::string prog, std::string header)
    : prog_(std::move(prog)), header_(std::move(header)) {}

OptionTable& OptionTable::add(std::string name, std::string metavar,
                              std::string help, Setter set) {
  entries_.push_back({std::move(name), std::move(metavar), std::move(help),
                      std::move(set)});
  return *this;
}

OptionTable& OptionTable::flag(std::string name, std::string help, bool* out) {
  return add(std::move(name), "", std::move(help), [out](const std::string&) {
    *out = true;
    return std::string();
  });
}

OptionTable& OptionTable::text(std::string name, std::string metavar,
                               std::string help, std::string* out) {
  return add(std::move(name), std::move(metavar), std::move(help),
             [out](const std::string& v) {
               if (v.empty()) return std::string("expected a non-empty value");
               *out = v;
               return std::string();
             });
}

OptionTable& OptionTable::real(std::string name, std::string metavar,
                               std::string help, double* out, double lo,
                               double hi) {
  return add(std::move(name), std::move(metavar), std::move(help),
             number(out, parse_double, [=](double x) { return x >= lo && x <= hi; },
                    hi == std::numeric_limits<double>::max()
                        ? strformat("expected a number >= %g", lo)
                        : strformat("expected a number in [%g, %g]", lo, hi)));
}

OptionTable& OptionTable::positive(std::string name, std::string metavar,
                                   std::string help, double* out) {
  return add(std::move(name), std::move(metavar), std::move(help),
             number(out, parse_double, [](double x) { return x > 0.0; },
                    "expected a positive number"));
}

OptionTable& OptionTable::integer(std::string name, std::string metavar,
                                  std::string help, int* out, int lo, int hi) {
  return add(std::move(name), std::move(metavar), std::move(help),
             number(out, parse_int, [=](int x) { return x >= lo && x <= hi; },
                    hi == INT_MAX
                        ? strformat("expected an integer >= %d", lo)
                        : strformat("expected an integer in [%d, %d]", lo, hi)));
}

OptionTable& OptionTable::u64(std::string name, std::string metavar,
                              std::string help, std::uint64_t* out) {
  return add(std::move(name), std::move(metavar), std::move(help),
             number(out, parse_uint64, [](std::uint64_t) { return true; },
                    "expected an integer in [0, 2^64 - 1]"));
}

OptionTable::Status OptionTable::parse(int argc, const char* const* argv,
                                       std::string* error, int first) const {
  error->clear();
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Status::kHelp;
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const Entry& e) { return e.name == arg; });
    if (it == entries_.end()) {
      *error = "unknown option: " + arg;
      return Status::kError;
    }
    std::string value;
    if (!it->metavar.empty()) {
      if (i + 1 >= argc) {
        *error = "missing value for " + arg;
        return Status::kError;
      }
      value = argv[++i];
    }
    if (std::string msg = it->set(value); !msg.empty()) {
      *error = arg + ": " + msg;
      return Status::kError;
    }
  }
  return Status::kOk;
}

std::string OptionTable::usage() const {
  const auto lhs = [](const Entry& e) {
    return e.metavar.empty() ? e.name : e.name + " " + e.metavar;
  };
  std::size_t width = std::string_view("--help").size();
  for (const Entry& e : entries_) width = std::max(width, lhs(e).size());
  const std::string indent(width + 4, ' ');
  std::string out = header_;
  const auto line = [&](const std::string& left, const std::string& help) {
    out += "  " + left + std::string(width + 2 - left.size(), ' ');
    for (char c : help) out += c == '\n' ? "\n" + indent : std::string(1, c);
    out += "\n";
  };
  for (const Entry& e : entries_) line(lhs(e), e.help);
  line("--help", "this text");
  return out;
}

void OptionTable::parse_or_exit(int argc, const char* const* argv,
                                int first) const {
  std::string error;
  switch (parse(argc, argv, &error, first)) {
    case Status::kOk:
      return;
    case Status::kHelp:
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    case Status::kError:
      fail(error);
  }
}

void OptionTable::fail(const std::string& error) const {
  std::fprintf(stderr, "%s: %s\n\n%s", prog_.c_str(), error.c_str(),
               usage().c_str());
  std::exit(2);
}

}  // namespace e2efa
