#include "core/structure.hpp"

#include <algorithm>

#include "netlist/builders.hpp"
#include "util/error.hpp"

namespace jrf::core {

using netlist::bus;
using netlist::network;
using netlist::node_id;

structure_tracker::structure_tracker(int depth_bits)
    : depth_bits_(depth_bits), max_depth_((1 << depth_bits) - 1) {
  if (depth_bits < 1 || depth_bits > 16)
    throw error("structure tracker: depth_bits out of range");
}

void structure_tracker::reset() {
  in_string_ = false;
  escaped_ = false;
  depth_ = 0;
}

string_mask_circuit build_string_mask(network& net, const bus& byte,
                                      const std::string& prefix) {
  string_mask_circuit out;
  out.in_string = net.dff(prefix + ".in_str");
  out.escape = net.dff(prefix + ".esc");
  const node_id is_quote = netlist::eq_const(net, byte, '"');
  const node_id is_bslash = netlist::eq_const(net, byte, '\\');

  // in_str' = in_str ? !(quote && !esc) : quote
  const node_id closing = net.and_gate(is_quote, net.not_gate(out.escape));
  out.in_string_next =
      net.mux(out.in_string, net.not_gate(closing), is_quote);

  // esc' = in_str && !esc && '\\'
  out.escape_next = net.and_gate(
      out.in_string, net.and_gate(net.not_gate(out.escape), is_bslash));

  out.masked = net.or_gate(out.in_string, is_quote);
  return out;
}

void connect_string_mask(network& net, const string_mask_circuit& mask,
                         node_id record_reset) {
  net.connect_dff(mask.in_string, mask.in_string_next, record_reset);
  net.connect_dff(mask.escape, mask.escape_next, record_reset);
}

structure_circuit elaborate_structure(network& net, const bus& byte,
                                      node_id masked, node_id record_reset,
                                      int depth_bits,
                                      const std::string& prefix) {
  if (depth_bits < 1 || depth_bits > 16)
    throw error("structure tracker: depth_bits out of range");

  structure_circuit out;
  out.masked = masked;
  const node_id unmasked = net.not_gate(out.masked);

  const node_id open_ch = net.or_gate(netlist::eq_const(net, byte, '{'),
                                      netlist::eq_const(net, byte, '['));
  const node_id close_ch = net.or_gate(netlist::eq_const(net, byte, '}'),
                                       netlist::eq_const(net, byte, ']'));
  out.scope_open = net.and_gate(unmasked, open_ch);
  out.scope_close = net.and_gate(unmasked, close_ch);
  out.pair_boundary = net.or_gate(
      out.scope_close,
      net.and_gate(unmasked, netlist::eq_const(net, byte, ',')));

  // Saturating up/down counter; the register holds the level before the
  // current byte, `out.depth` the level after it.
  const bus depth = netlist::dff_bus(net, prefix + ".depth", depth_bits);
  const std::uint64_t max_code = (std::uint64_t{1} << depth_bits) - 1;
  const node_id at_max = netlist::eq_const(net, depth, max_code);
  const node_id at_zero = netlist::eq_const(net, depth, 0);
  const bus inc = netlist::increment(net, depth);
  const bus dec = netlist::decrement(net, depth);
  const node_id do_inc = net.and_gate(out.scope_open, net.not_gate(at_max));
  const node_id do_dec = net.and_gate(out.scope_close, net.not_gate(at_zero));
  bus depth_after;
  depth_after.reserve(depth.size());
  for (std::size_t i = 0; i < depth.size(); ++i)
    depth_after.push_back(
        net.mux(do_inc, inc[i], net.mux(do_dec, dec[i], depth[i])));
  for (std::size_t i = 0; i < depth.size(); ++i)
    net.connect_dff(depth[i], depth_after[i], record_reset);

  out.depth = depth_after;
  out.depth_before = depth;
  return out;
}

}  // namespace jrf::core
