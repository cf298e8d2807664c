// Self-describing tool registry: the single catalog of QLS tools.
//
// The paper's experiment grid is (tool x benchmark); before this
// registry existed the tool axis was an ad-hoc std::function lineup
// hardcoded by eval::paper_toolbox, the campaign worker, the CLI and
// every bench — five layers to touch per new tool variant. Now a tool
// registers ONCE, with a name, a doc line and a typed option schema, and
// every consumer selects tools by name + option overrides:
//
//   eval::paper_toolbox          -> registry query over paper_tool_names()
//   campaign spec v3             -> {"name": "lightsabre", "options": {...}}
//   qubikos_cli tools list       -> the registry table
//   qubikos_cli route / --tool   -> parse_tool_spec("name:key=val,...")
//   benches                      -> make_tool(name, overrides, context)
//
// Option validation is loud: an unknown tool name, an unknown option key
// or an ill-typed value throws immediately (never a silent default) —
// a misspelled knob that quietly ran the default configuration would
// poison a whole campaign's tables.
//
// Builtin tools self-register lazily from per-router registration units
// (src/tools/builtin_*.cpp) on first registry access; additional tools
// can be registered at runtime with register_tool().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eval/harness.hpp"
#include "graph/distance.hpp"
#include "tools/context.hpp"
#include "util/json.hpp"

namespace qubikos::tools {

enum class option_kind { integer, real, boolean };

[[nodiscard]] const char* option_kind_name(option_kind kind);

/// One typed knob of a tool's schema. `default_value` must match `kind`
/// (boolean <-> bool, integer <-> integral number, real <-> number).
/// Numeric values outside [minimum, maximum] are rejected at resolve
/// time; the defaults (non-negative, capped at int32 max) make the
/// factories' int/size_t casts well-defined without per-factory checks.
/// Widen explicitly where a knob needs more (e.g. 64-bit seeds).
struct option_spec {
    std::string key;
    option_kind kind = option_kind::integer;
    json::value default_value;
    std::string doc;
    double minimum = 0.0;
    double maximum = 2147483647.0;  // INT32_MAX
};

/// Exactly representable in double and in uint64 — the widest range a
/// JSON-carried seed can survive unclamped.
inline constexpr double max_seed_option = 9007199254740992.0;  // 2^53

/// A registered tool's self-description.
struct tool_info {
    std::string name;
    std::string doc;
    std::vector<option_spec> options;

    /// nullptr when the key is not in the schema.
    [[nodiscard]] const option_spec* find_option(const std::string& key) const;
};

/// One configured router: routes a circuit on the provider's coupling
/// graph and, when `stats` is non-null and the router has statistics to
/// report, fills it (leaving `present` false otherwise).
using tool_router = std::function<routed_circuit(const circuit&, const distance_provider&,
                                                 eval::tool_run_stats* stats)>;

/// Builds a tool's router from a fully-resolved option object (every
/// schema key present, validated). make_tool binds it to distances.
using tool_factory = std::function<tool_router(const json::value& options)>;

/// Registers a tool; throws std::invalid_argument on a duplicate name or
/// a schema whose defaults don't match their declared kinds.
void register_tool(tool_info info, tool_factory factory);

/// All registered names, in registration order (builtins first).
[[nodiscard]] std::vector<std::string> registered_tool_names();

[[nodiscard]] bool is_registered_tool(const std::string& name);

/// Self-description of a registered tool; throws on unknown names with
/// the known lineup in the message.
[[nodiscard]] const tool_info& tool_registry_info(const std::string& name);

/// The paper's four-tool lineup (lightsabre, mlqls, qmap, tket) in table
/// order — the default tool axis of specs, reports and benches.
[[nodiscard]] const std::vector<std::string>& paper_tool_names();

/// The lineup-level knobs as registry overrides for tool `name`:
/// `sabre_trials` sets lightsabre's trial count and `seed` every tool
/// with a seed option. eval::paper_toolbox and campaign specs both map
/// their settings through this one function.
[[nodiscard]] json::value lineup_overrides(const std::string& name, int sabre_trials,
                                           std::uint64_t seed);

/// Validates `overrides` (an object, or null for none) against the schema
/// and folds it over the defaults into a complete option object. Unknown
/// keys and ill-typed values throw std::invalid_argument.
[[nodiscard]] json::value resolve_options(const tool_info& info, const json::value& overrides);

/// Looks a tool up, resolves its options and builds it. The returned
/// tool's name is the registry name; callers running several variants of
/// one tool relabel it (eval::tool::name is plain data). Each call routes
/// on the `context`'s shared distances when the context matches() the
/// graph it is handed, and on a provider built for that call otherwise
/// (including when `context` is null) — the output is the same.
[[nodiscard]] eval::tool make_tool(const std::string& name, const json::value& overrides = {},
                                   std::shared_ptr<const routing_context> context = nullptr);

/// A parsed tool selection: registry name + option overrides.
struct tool_selection {
    std::string name;
    /// Object of overrides; null when none were given.
    json::value options;

    /// "name" or "name:key=val,..." (keys sorted — json objects are
    /// ordered maps), the default display label of an option-overridden
    /// variant.
    [[nodiscard]] std::string canonical() const;
};

/// Parses the CLI selector syntax "name[:key=val,...]". Values are typed
/// by the schema (integer/real parsed fully, booleans accept
/// true/false/1/0); anything else throws std::invalid_argument.
[[nodiscard]] tool_selection parse_tool_spec(const std::string& text);

/// Multi-line human-readable schema description of one tool (the
/// `qubikos_cli tools describe` output; snapshot-pinned by test).
[[nodiscard]] std::string describe_tool(const std::string& name);

/// One tool's self-description as JSON: {"doc", "name", "options":
/// [{"default", "doc", "key", "kind", "maximum", "minimum"}]} with the
/// options in schema order. Machine-readable counterpart of
/// describe_tool for serve clients and `tools describe <tool> --json`.
[[nodiscard]] json::value tool_info_to_json(const tool_info& info);

/// The whole registry as JSON ({"schema": "qubikos.tools.v1", "tools":
/// [...]} in registration order) — the `tools describe --json` document
/// and the serve protocol's "tools" op payload. Byte-deterministic for
/// a fixed registry (snapshot-pinned by test).
[[nodiscard]] json::value registry_to_json();

/// One-line-per-tool table of the whole registry (`tools list`).
[[nodiscard]] std::string render_tool_table();

}  // namespace qubikos::tools
