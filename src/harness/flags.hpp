// Declarative command-line flags.  Every tool (pcmcast/pcmlint, the
// benches, pcmchaos, pcmtrace) lists its flags in one FlagTable, and
// parse_flags and flag_usage read it, so every tool has one grammar:
//  - a value follows its flag and never starts with "--";
//  - a row's field type is its value kind: bool is a switch, an integer
//    lies in [lo, hi], a string is at least `lo` long, an IntPair is
//    "A<sep>B" with both halves in [lo, hi], an EngineKind is cycle|event;
//  - --help/-h sets Opts::help and skips the mode check;
//  - every error throws std::invalid_argument "<tool>: <what>".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "harness/spec.hpp"
#include "sim/simulator.hpp"

namespace pcm::harness {

/// Bit m set: the flag applies in mode m (FlagTable::mode_of).
using ModeMask = std::uint32_t;
inline constexpr ModeMask kAnyMode = ~ModeMask{0};

/// An "A<sep>B" value, e.g. pcmtrace's --channel R,P.
using IntPair = std::pair<std::int64_t, std::int64_t>;

template <class Opts>
struct Flag {
  std::string_view name = {}, alias = {};  ///< "--jobs", "-j"
  std::string_view metavar = {};           ///< "N" in "--jobs N"; empty for a switch
  std::variant<bool Opts::*, int Opts::*, std::int64_t Opts::*, std::uint64_t Opts::*,
               std::optional<std::int64_t> Opts::*, std::optional<IntPair> Opts::*,
               std::string Opts::*, sim::EngineKind Opts::*>
      field = {};  ///< the option the flag sets
  std::int64_t lo = 0, hi = 0;
  char sep = 0;  ///< IntPair separator
  /// The modes the flag applies in; a flag whose field ends at its
  /// default value changed nothing and is not checked.
  ModeMask modes = kAnyMode;
  std::string_view help = {};  ///< '\n' continues on the next line
};

template <class Opts>
struct FlagTable {
  std::string tool = {};              ///< prefixes every error
  std::string intro = {}, outro = {};  ///< --help text around the flag rows
  int column = 0;                     ///< where help text starts, after the indent
  /// The mode a parsed Opts runs in, and each mode's name; without
  /// mode_of every flag applies in every mode.
  int (*mode_of)(const Opts&) = nullptr;
  std::vector<std::string_view> mode_names = {};
  /// Where arguments that are not flags go; without it they are errors.
  std::vector<std::string> Opts::*operands = nullptr;
  std::vector<Flag<Opts>> flags = {};
};

inline std::invalid_argument usage_error(std::string_view tool, const std::string& what) {
  return std::invalid_argument(std::string(tool) + ": " + what);
}

/// Parses `args` (excluding argv[0]) against `t`; a later flag overrides
/// an earlier one.
template <class Opts>
Opts parse_flags(const FlagTable<Opts>& t, std::span<const std::string_view> args) {
  Opts o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string a(args[i]);
    if (a == "--help" || a == "-h") {
      o.help = true;
      continue;
    }
    const Flag<Opts>* f = nullptr;
    for (const Flag<Opts>& row : t.flags)
      if (a == row.name || (!row.alias.empty() && a == row.alias)) f = &row;
    if (f == nullptr) {
      if (t.operands == nullptr || a.starts_with("--"))
        throw usage_error(t.tool, "unknown option '" + a + "' (try --help)");
      (o.*t.operands).push_back(a);
      continue;
    }
    std::visit(
        [&](auto field) {
          auto& out = o.*field;
          using T = std::remove_reference_t<decltype(out)>;
          if constexpr (std::is_same_v<T, bool>) {
            out = true;
            return;
          }
          if (i + 1 == args.size() || args[i + 1].starts_with("--") ||
              (std::is_same_v<T, std::string> && std::ssize(args[i + 1]) < f->lo))
            throw usage_error(t.tool, "missing value for " + a);
          const std::string_view v = args[++i];
          if constexpr (std::is_same_v<T, std::string>) {
            out = v;
          } else if constexpr (std::is_same_v<T, sim::EngineKind>) {
            if (v != "cycle" && v != "event")
              throw usage_error(t.tool, a + " must be 'cycle' or 'event', got '" +
                                            std::string(v) + "'");
            out = v == "event" ? sim::EngineKind::kEvent : sim::EngineKind::kCycle;
          } else if constexpr (std::is_same_v<T, std::optional<IntPair>>) {
            const std::size_t at = v.find(f->sep);
            if (at == std::string_view::npos)
              throw usage_error(t.tool, a + " expects " + std::string(f->metavar) +
                                            ", got '" + std::string(v) + "'");
            out = IntPair{parse_uint_flag(a, v.substr(0, at), f->lo, f->hi, t.tool),
                          parse_uint_flag(a, v.substr(at + 1), f->lo, f->hi, t.tool)};
          } else if constexpr (!std::is_same_v<T, bool>) {
            out = static_cast<std::conditional_t<std::is_integral_v<T>, T, std::int64_t>>(
                parse_uint_flag(a, v, f->lo, f->hi, t.tool));
          }
        },
        f->field);
  }
  if (o.help || t.mode_of == nullptr) return o;
  const int mode = t.mode_of(o);
  const Opts defaults{};
  for (const Flag<Opts>& f : t.flags) {
    const bool set = std::visit([&](auto field) { return !(o.*field == defaults.*field); },
                                f.field);
    if (!set || (f.modes >> mode & 1U) != 0) continue;
    std::string only;
    for (std::size_t m = 0; m < t.mode_names.size(); ++m)
      if ((f.modes >> m & 1U) != 0)
        only += (only.empty() ? "" : ", ") + std::string(t.mode_names[m]);
    throw usage_error(t.tool, std::string(f.name) + " does not apply to " +
                                  std::string(t.mode_names[mode]) + " (only to " + only + ")");
  }
  return o;
}

/// The --help text of `t`: intro, one row per flag and --help, outro.
template <class Opts>
std::string flag_usage(const FlagTable<Opts>& t) {
  std::string out = t.intro;
  const auto row = [&](std::string label, std::string_view help) {
    const auto width = static_cast<std::size_t>(t.column);
    label.resize(label.size() < width ? width : label.size() + 2, ' ');
    for (std::size_t nl = 0; (nl = help.find('\n')) != std::string_view::npos;) {
      out += "  " + label + std::string(help.substr(0, nl + 1));
      label.assign(width, ' ');
      help.remove_prefix(nl + 1);
    }
    out += "  " + label + std::string(help) + "\n";
  };
  for (const Flag<Opts>& f : t.flags)
    row(std::string(f.name) + (f.metavar.empty() ? "" : " ") + std::string(f.metavar),
        f.help);
  row("--help", "this text");
  return out + t.outro;
}

}  // namespace pcm::harness
