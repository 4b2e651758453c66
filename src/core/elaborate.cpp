#include "core/elaborate.hpp"

#include "core/structure.hpp"
#include "netlist/builders.hpp"
#include "util/error.hpp"

namespace jrf::core {

using netlist::bus;
using netlist::network;
using netlist::node_id;

namespace {

/// Sticky record-level latch: returns the "now" value (latch | pulse); the
/// register itself clears on `reset`.
node_id record_latch(network& net, node_id pulse, node_id reset,
                     const std::string& name) {
  const node_id latch = net.dff(name);
  const node_id now = net.or_gate(latch, pulse);
  net.connect_dff(latch, now, reset);
  return now;
}

/// Elaborates one structural group; mirrors group_tracker::step.
node_id elaborate_group(network& net, const filter_expr& e,
                        const std::vector<node_id>& member_fires,
                        const structure_circuit& sc, node_id boundary,
                        const std::string& prefix) {
  // armed_depth tracks depth_before until the first member fire arms it.
  const node_id armed = net.dff(prefix + ".armed");
  const bus armed_depth = netlist::dff_bus(net, prefix + ".adepth",
                                           static_cast<int>(sc.depth_before.size()));
  const bus ad_now = netlist::mux_bus(net, armed, armed_depth, sc.depth_before);

  std::vector<node_id> latched_now;
  latched_now.reserve(member_fires.size());
  std::vector<node_id> latches;
  for (std::size_t i = 0; i < member_fires.size(); ++i) {
    const node_id latch = net.dff(prefix + ".m" + std::to_string(i));
    latches.push_back(latch);
    latched_now.push_back(net.or_gate(latch, member_fires[i]));
  }
  const node_id any_fire = net.or_all(member_fires);
  const node_id arm_now = net.or_gate(armed, any_fire);
  const node_id all_latched = net.and_all(latched_now);

  node_id sample = boundary;
  if (e.group == group_kind::scope) {
    // depth_before <= ad_now, i.e. the closing scope is at or below the
    // level the group armed at.
    const node_id back_at_level = netlist::ge_bus(net, ad_now, sc.depth_before);
    sample = net.or_gate(
        sample,
        net.and_gate(sc.scope_close, net.and_gate(arm_now, back_at_level)));
  } else {
    sample = net.or_gate(sample, sc.pair_boundary);
  }

  const node_id fire = net.and_gate(sample, net.and_gate(arm_now, all_latched));

  // `sample` doubles as the group registers' synchronous reset (it clears
  // the latches whether or not the group fired).
  for (std::size_t i = 0; i < latches.size(); ++i)
    net.connect_dff(latches[i], latched_now[i], sample);
  net.connect_dff(armed, arm_now, sample);
  for (std::size_t i = 0; i < armed_depth.size(); ++i)
    net.connect_dff(armed_depth[i], ad_now[i]);

  return fire;
}

bool has_group(const filter_expr& e) {
  switch (e.kind) {
    case expr_kind::primitive:
      return false;
    case expr_kind::group:
      return true;
    case expr_kind::conjunction:
    case expr_kind::disjunction:
      for (const expr_ptr& child : e.children)
        if (has_group(*child)) return true;
      return false;
  }
  return false;
}

struct tree_builder {
  network& net;
  const bus& byte;
  node_id reset;
  node_id boundary;
  const structure_circuit* structure;  // null when the filter has no groups
  std::string prefix;
  int counter = 0;

  node_id build(const filter_expr& e) {
    switch (e.kind) {
      case expr_kind::primitive: {
        const std::string name = prefix + ".p" + std::to_string(counter++);
        const auto engine = make_engine(e.prim);
        const auto elaborated = engine->elaborate(net, byte, reset, name);
        return record_latch(net, elaborated.fire, reset, name + ".match");
      }
      case expr_kind::group: {
        const std::string name = prefix + ".g" + std::to_string(counter++);
        std::vector<node_id> fires;
        fires.reserve(e.members.size());
        for (std::size_t i = 0; i < e.members.size(); ++i) {
          const auto engine = make_engine(e.members[i]);
          const auto elaborated = engine->elaborate(
              net, byte, reset, name + ".p" + std::to_string(i));
          fires.push_back(elaborated.fire);
        }
        if (structure == nullptr)
          throw error("elaborate filter: group without structure circuit");
        const node_id fire =
            elaborate_group(net, e, fires, *structure, boundary, name);
        return record_latch(net, fire, reset, name + ".match");
      }
      case expr_kind::conjunction: {
        std::vector<node_id> terms;
        terms.reserve(e.children.size());
        for (const expr_ptr& child : e.children) terms.push_back(build(*child));
        return net.and_all(terms);
      }
      case expr_kind::disjunction: {
        std::vector<node_id> terms;
        terms.reserve(e.children.size());
        for (const expr_ptr& child : e.children) terms.push_back(build(*child));
        return net.or_all(terms);
      }
    }
    throw error("elaborate filter: invalid expression node");
  }
};

}  // namespace

filter_circuit elaborate_filter(network& net, const expr_ptr& expr,
                                const filter_options& options,
                                const std::string& prefix) {
  if (!expr) throw error("elaborate filter: null expression");

  filter_circuit out;
  out.byte = netlist::input_bus(net, prefix + ".byte", 8);

  // Record-boundary detection with a string mask, so a separator byte
  // inside a (malformed) string literal never splits a record. The mask
  // resets itself at the boundary it detects; the loop runs through the
  // register inputs only, so the logic stays acyclic.
  const node_id is_sep = netlist::eq_const(net, out.byte, options.separator);
  const string_mask_circuit mask =
      build_string_mask(net, out.byte, prefix + ".mask");
  out.record_boundary = net.and_gate(is_sep, net.not_gate(mask.masked));
  connect_string_mask(net, mask, out.record_boundary);
  const node_id reset = out.record_boundary;

  // One shared structure tracker when any group needs it, on the string
  // mask built above.
  structure_circuit sc;
  const bool need_structure = has_group(*expr);
  if (need_structure)
    sc = elaborate_structure(net, out.byte, mask.masked, reset,
                             options.depth_bits, prefix);

  tree_builder builder{net,      out.byte,
                       reset,    out.record_boundary,
                       need_structure ? &sc : nullptr,
                       prefix,   0};
  out.accept = builder.build(*expr);

  net.mark_output(out.accept, prefix + ".accept");
  net.mark_output(out.record_boundary, prefix + ".boundary");
  return out;
}

lut::report filter_cost(const expr_ptr& expr, const filter_options& options,
                        const lut::mapping_options& map) {
  network net;
  elaborate_filter(net, expr, options);
  return lut::map_network(net, map);
}

lut::report primitive_cost(const primitive_spec& spec,
                           const filter_options& options,
                           const lut::mapping_options& map) {
  network net;
  const bus byte = netlist::input_bus(net, "byte", 8);
  const node_id reset = netlist::eq_const(net, byte, options.separator);
  const auto engine = make_engine(spec);
  const auto elaborated = engine->elaborate(net, byte, reset, "p");
  const node_id match = record_latch(net, elaborated.fire, reset, "p.match");
  net.mark_output(match, "match");
  return lut::map_network(net, map);
}

}  // namespace jrf::core
