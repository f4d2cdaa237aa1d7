#include "netlist/sp_expr.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mtcmos::netlist {

SpExpr::SpExpr(Kind kind, int pin, std::vector<SpExpr> children)
    : kind_(kind), pin_(pin), children_(std::move(children)) {}

SpExpr SpExpr::input(int pin) {
  require(pin >= 0, "SpExpr::input: pin must be non-negative");
  return SpExpr(Kind::kInput, pin, {});
}

SpExpr SpExpr::series(std::vector<SpExpr> children) {
  require(!children.empty(), "SpExpr::series: needs at least one child");
  if (children.size() == 1) return children.front();
  return SpExpr(Kind::kSeries, 0, std::move(children));
}

SpExpr SpExpr::parallel(std::vector<SpExpr> children) {
  require(!children.empty(), "SpExpr::parallel: needs at least one child");
  if (children.size() == 1) return children.front();
  return SpExpr(Kind::kParallel, 0, std::move(children));
}

SpExpr SpExpr::dual() const {
  if (kind_ == Kind::kInput) return *this;
  std::vector<SpExpr> duals;
  duals.reserve(children_.size());
  for (const SpExpr& c : children_) duals.push_back(c.dual());
  return SpExpr(kind_ == Kind::kSeries ? Kind::kParallel : Kind::kSeries, 0, std::move(duals));
}

bool SpExpr::conducts(const std::vector<bool>& pins) const {
  switch (kind_) {
    case Kind::kInput:
      require(static_cast<std::size_t>(pin_) < pins.size(),
              "SpExpr::conducts: pin index out of range");
      return pins[static_cast<std::size_t>(pin_)];
    case Kind::kSeries:
      for (const SpExpr& c : children_) {
        if (!c.conducts(pins)) return false;
      }
      return true;
    case Kind::kParallel:
      for (const SpExpr& c : children_) {
        if (c.conducts(pins)) return true;
      }
      return false;
  }
  return false;
}

std::uint64_t SpExpr::truth_table() const {
  // Column of pin p over the 64 assignments: bit m is bit p of m.
  static constexpr std::uint64_t kPin[6] = {0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull,
                                            0xF0F0F0F0F0F0F0F0ull, 0xFF00FF00FF00FF00ull,
                                            0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  std::uint64_t acc = 0;
  switch (kind_) {
    case Kind::kInput:
      require(pin_ < 6, "SpExpr::truth_table: pin index out of range");
      return kPin[pin_];
    case Kind::kSeries:
      acc = ~std::uint64_t{0};
      for (const SpExpr& c : children_) acc &= c.truth_table();
      return acc;
    case Kind::kParallel:
      for (const SpExpr& c : children_) acc |= c.truth_table();
      return acc;
  }
  return acc;
}

int SpExpr::max_depth() const {
  switch (kind_) {
    case Kind::kInput:
      return 1;
    case Kind::kSeries: {
      int sum = 0;
      for (const SpExpr& c : children_) sum += c.max_depth();
      return sum;
    }
    case Kind::kParallel: {
      int best = 0;
      for (const SpExpr& c : children_) best = std::max(best, c.max_depth());
      return best;
    }
  }
  return 1;
}

int SpExpr::transistor_count() const {
  if (kind_ == Kind::kInput) return 1;
  int sum = 0;
  for (const SpExpr& c : children_) sum += c.transistor_count();
  return sum;
}

int SpExpr::pin_count(int pin) const {
  if (kind_ == Kind::kInput) return pin_ == pin ? 1 : 0;
  int sum = 0;
  for (const SpExpr& c : children_) sum += c.pin_count(pin);
  return sum;
}

int SpExpr::max_pin() const {
  if (kind_ == Kind::kInput) return pin_;
  int best = -1;
  for (const SpExpr& c : children_) best = std::max(best, c.max_pin());
  return best;
}

int SpExpr::top_adjacency() const {
  switch (kind_) {
    case Kind::kInput:
      return 1;
    case Kind::kSeries:
      return children_.front().top_adjacency();
    case Kind::kParallel: {
      int sum = 0;
      for (const SpExpr& c : children_) sum += c.top_adjacency();
      return sum;
    }
  }
  return 1;
}

void SpExpr::expand(int top, int bottom, const EmitFn& emit, const AllocFn& alloc_node) const {
  switch (kind_) {
    case Kind::kInput:
      emit(pin_, top, bottom);
      return;
    case Kind::kSeries: {
      int upper = top;
      for (std::size_t i = 0; i < children_.size(); ++i) {
        const int lower = (i + 1 == children_.size()) ? bottom : alloc_node();
        children_[i].expand(upper, lower, emit, alloc_node);
        upper = lower;
      }
      return;
    }
    case Kind::kParallel:
      for (const SpExpr& c : children_) c.expand(top, bottom, emit, alloc_node);
      return;
  }
}

std::string SpExpr::serialize(const std::function<std::string(int)>& leaf_name) const {
  switch (kind_) {
    case Kind::kInput:
      return leaf_name(pin_);
    case Kind::kSeries:
    case Kind::kParallel: {
      std::string out = (kind_ == Kind::kSeries) ? "(s" : "(p";
      for (const SpExpr& c : children_) {
        out += ' ';
        out += c.serialize(leaf_name);
      }
      out += ')';
      return out;
    }
  }
  return {};
}

}  // namespace mtcmos::netlist
