#pragma once
// Series-parallel switch network expressions.
//
// A static CMOS gate is fully described by its NMOS pull-down network; the
// PMOS pull-up is the series/parallel dual over the same literals.  An
// SpExpr captures that network as an expression tree over input pin
// indices, and gives the toolkit everything it needs from one source of
// truth:
//   * the gate's boolean function (output = NOT pull-down-conducting),
//   * the transistor-level expansion (spice substrate),
//   * the equivalent-inverter reduction the paper's switch-level tool uses
//     (worst-case stack depth -> effective W/L, pin occurrence counts ->
//     input capacitance, top-adjacency -> output junction capacitance).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mtcmos::netlist {

class SpExpr {
 public:
  /// Single transistor gated by input pin `pin` (0-based index into the
  /// owning gate's fanin list).
  static SpExpr input(int pin);
  /// All children conduct in series (AND of conduction).
  static SpExpr series(std::vector<SpExpr> children);
  /// Children conduct in parallel (OR of conduction).
  static SpExpr parallel(std::vector<SpExpr> children);

  /// Series/parallel dual (same literals, series <-> parallel): the
  /// topology of the complementary network.
  SpExpr dual() const;

  /// Does the network conduct for the given pin values?
  bool conducts(const std::vector<bool>& pins) const;

  /// conducts() for every assignment at once: bit m is set iff the
  /// network conducts when pin p carries bit p of m.  Pins must be < 6.
  std::uint64_t truth_table() const;

  /// Worst-case series stack depth (1 for a bare literal).
  int max_depth() const;

  /// Total number of transistors in the network.
  int transistor_count() const;

  /// Number of transistors gated by `pin`.
  int pin_count(int pin) const;

  /// Highest pin index referenced, or -1 for an (invalid) empty expr.
  int max_pin() const;

  /// Number of transistors whose channel terminal touches the *top* node
  /// of the network (the output side); used for junction-cap estimates.
  int top_adjacency() const;

  /// Expand into transistors between `top` and `bottom` nodes.  The
  /// callback emits one transistor; `alloc_node` returns a fresh internal
  /// node id when the expansion needs one.
  using EmitFn = std::function<void(int pin, int node_top, int node_bottom)>;
  using AllocFn = std::function<int()>;
  void expand(int top, int bottom, const EmitFn& emit, const AllocFn& alloc_node) const;

  /// S-expression text form: "(s a b)" / "(p (s a b) c)" with leaves named
  /// by `leaf_name(pin)`.  Inverse of the netlist reader's expression
  /// grammar.
  std::string serialize(const std::function<std::string(int pin)>& leaf_name) const;

 private:
  enum class Kind { kInput, kSeries, kParallel };
  SpExpr(Kind kind, int pin, std::vector<SpExpr> children);

  Kind kind_ = Kind::kInput;
  int pin_ = 0;
  std::vector<SpExpr> children_;
};

}  // namespace mtcmos::netlist
