#include "csim/machine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace la1::csim {

namespace {

rtl::Logic decode(bool a, bool b) {
  if (b) return a ? rtl::Logic::kX : rtl::Logic::kZ;
  return a ? rtl::Logic::k1 : rtl::Logic::k0;
}

std::uint64_t width_mask(int width) {
  return width >= 64 ? ~0ull : (1ull << width) - 1;
}

/// Lane `lane`'s value of a bus, LSB-first: bit `lane` of the `plane`
/// (aval or bval) slot of each of its first 64 bits.
std::uint64_t gather_bits(const std::uint64_t* s,
                          const std::vector<BitRef>& bits, int lane,
                          std::int32_t BitRef::*plane) {
  std::uint64_t v = 0;
  const std::size_t n = std::min<std::size_t>(bits.size(), 64);
  for (std::size_t i = 0; i < n; ++i) {
    v |= ((s[bits[i].*plane] >> lane) & 1) << i;
  }
  return v;
}

/// One block-swap stage of transpose64; `m` selects the low J bits of
/// every 2J-bit group. A fixed J keeps the inner loop straight-line.
template <int J>
void transpose_stage(std::uint64_t rows[64], std::uint64_t m) {
  for (int k = 0; k < 64; k += 2 * J) {
    for (int i = k; i < k + J; ++i) {
      const std::uint64_t t = ((rows[i] >> J) ^ rows[i + J]) & m;
      rows[i + J] ^= t;
      rows[i] ^= t << J;
    }
  }
}

/// Below this many lane-bits a gather beats one 64x64 transpose.
constexpr int kTransposeMinBits = 256;

/// rows[lane] = lane's value of the bus `bits` (plane aval or bval), for
/// every lane in `lanes`; other rows are left unspecified.
void bus_rows(const std::uint64_t* s, const std::vector<BitRef>& bits,
              std::int32_t BitRef::*plane, std::uint64_t lanes,
              std::uint64_t rows[64]) {
  const int n = static_cast<int>(std::min<std::size_t>(bits.size(), 64));
  if (std::popcount(lanes) * n < kTransposeMinBits) {
    for (; lanes != 0; lanes &= lanes - 1) {
      const int lane = std::countr_zero(lanes);
      rows[lane] = gather_bits(s, bits, lane, plane);
    }
    return;
  }
  for (int i = 0; i < n; ++i) {
    rows[i] = s[bits[static_cast<std::size_t>(i)].*plane];
  }
  std::fill(rows + n, rows + 64, 0);
  transpose64(rows);
}

/// OR of the bval words of `bits`: the lanes where any of them is X or Z.
std::uint64_t unknown_lanes(const std::uint64_t* s,
                            const std::vector<BitRef>& bits) {
  std::uint64_t u = 0;
  for (const BitRef& bit : bits) u |= s[bit.b];
  return u;
}

}  // namespace

void transpose64(std::uint64_t rows[64]) {
  // Recursive block swap (Hacker's Delight 7-3), mirrored for LSB-first
  // indexing: at block size J the top-right J x J block of every 2J x 2J
  // tile (high bits of the upper rows) trades places with the bottom-left
  // one (low bits of the lower rows).
  transpose_stage<32>(rows, 0x00000000FFFFFFFFull);
  transpose_stage<16>(rows, 0x0000FFFF0000FFFFull);
  transpose_stage<8>(rows, 0x00FF00FF00FF00FFull);
  transpose_stage<4>(rows, 0x0F0F0F0F0F0F0F0Full);
  transpose_stage<2>(rows, 0x3333333333333333ull);
  transpose_stage<1>(rows, 0x5555555555555555ull);
}

Machine::Machine(const Compiled& compiled, int lanes) : compiled_(&compiled) {
  set_lanes(lanes);
  mems_.resize(compiled_->mems().size());
  reset();
}

void Machine::set_lanes(int lanes) {
  if (lanes < 1 || lanes > 64) {
    throw std::invalid_argument("csim::Machine lanes must be in [1, 64]");
  }
  lanes_ = lanes;
  settled_ = false;  // newly active lanes have no memory-read values yet
}

void Machine::reset() {
  slots_ = compiled_->reset_image();
  for (std::size_t m = 0; m < mems_.size(); ++m) {
    const std::size_t words =
        static_cast<std::size_t>(compiled_->mems()[m].depth) * 64;
    mems_[m].a.assign(words, 0);
    mems_[m].b.assign(words, 0);
  }
  edges_ = 0;
  eval();
}

void Machine::run(const Program& p) {
  std::uint64_t* s = slots_.data();
  for (const Instr& in : p.code) {
    switch (in.op) {
      case OpCode::kConst:
        s[in.d] = in.imm;
        break;
      case OpCode::kMov:
        s[in.d] = s[in.s0];
        break;
      case OpCode::kNot:
        s[in.d] = ~s[in.s0];
        break;
      case OpCode::kAnd:
        s[in.d] = s[in.s0] & s[in.s1];
        break;
      case OpCode::kOr:
        s[in.d] = s[in.s0] | s[in.s1];
        break;
      case OpCode::kXor:
        s[in.d] = s[in.s0] ^ s[in.s1];
        break;
      case OpCode::kXnor:
        s[in.d] = ~(s[in.s0] ^ s[in.s1]);
        break;
      case OpCode::kNor:
        s[in.d] = ~(s[in.s0] | s[in.s1]);
        break;
      case OpCode::kAndn:
        s[in.d] = s[in.s0] & ~s[in.s1];
        break;
      case OpCode::kOrn:
        s[in.d] = ~s[in.s0] | s[in.s1];
        break;
      case OpCode::kMux:
        s[in.d] = (s[in.s0] & s[in.s2]) | (s[in.s1] & ~s[in.s2]);
        break;
      case OpCode::kXor3:
        s[in.d] = s[in.s0] ^ s[in.s1] ^ s[in.s2];
        break;
      case OpCode::kCarry: {
        const std::uint64_t x = s[in.s0];
        const std::uint64_t y = s[in.s1];
        s[in.d] = (x & y) | (s[in.s2] & (x ^ y));
        break;
      }
      case OpCode::kOrAcc:
        s[in.d] |= s[in.s0];
        break;
      case OpCode::kAndOr:
        s[in.d] |= s[in.s0] & s[in.s1];
        break;
      case OpCode::kMemRead:
        exec_mem_read(
            compiled_->mem_reads()[static_cast<std::size_t>(in.imm)]);
        s = slots_.data();
        break;
      case OpCode::kMemWrite:
        exec_mem_write(
            compiled_->mem_writes()[static_cast<std::size_t>(in.imm)]);
        s = slots_.data();
        break;
    }
  }
}

void Machine::exec_mem_read(const MemReadDesc& d) {
  const MemImage& img = mems_[static_cast<std::size_t>(d.mem)];
  std::uint64_t* s = slots_.data();
  // Any X/Z address bit, like LVec::to_uint, makes the read all-X; defined
  // bits past 63 are dropped the same way.
  const std::uint64_t unknown = unknown_lanes(s, d.addr);
  std::uint64_t idx[64];
  bus_rows(s, d.addr, &BitRef::a, width_mask(lanes_), idx);
  // Gather one word per active lane, then turn the rows into slot words.
  std::uint64_t rows_a[64];
  std::uint64_t rows_b[64];
  std::uint64_t any_b = 0;
  for (int lane = 0; lane < lanes_; ++lane) {
    if (((unknown >> lane) & 1) != 0 ||
        idx[lane] >= static_cast<std::uint64_t>(d.depth)) {
      rows_a[lane] = ~0ull;
      rows_b[lane] = ~0ull;
    } else {
      const std::size_t at = static_cast<std::size_t>(idx[lane]) * 64 +
                             static_cast<std::size_t>(lane);
      rows_a[lane] = img.a[at];
      rows_b[lane] = img.b[at];
    }
    any_b |= rows_b[lane];
  }
  if (lanes_ == 1) {  // one row: spread its bits straight into the slots
    for (int i = 0; i < d.width; ++i) {
      s[d.out_a[static_cast<std::size_t>(i)]] = (rows_a[0] >> i) & 1;
      s[d.out_b[static_cast<std::size_t>(i)]] = (rows_b[0] >> i) & 1;
    }
    return;
  }
  std::fill(rows_a + lanes_, rows_a + 64, 0);
  transpose64(rows_a);
  if (any_b != 0) {
    std::fill(rows_b + lanes_, rows_b + 64, 0);
    transpose64(rows_b);
  }
  for (int i = 0; i < d.width; ++i) {
    s[d.out_a[static_cast<std::size_t>(i)]] = rows_a[i];
    s[d.out_b[static_cast<std::size_t>(i)]] = any_b != 0 ? rows_b[i] : 0;
  }
}

void Machine::exec_mem_write(const MemWriteDesc& d) {
  MemImage& img = mems_[static_cast<std::size_t>(d.mem)];
  const std::uint64_t* s = slots_.data();
  const std::uint64_t wmask = width_mask(d.width);
  // Only lanes whose wen is not 0 write; visit just those.
  const std::uint64_t writing =
      (s[d.wen.a] | s[d.wen.b]) & width_mask(lanes_);
  if (writing == 0) return;
  const std::uint64_t unknown_addr = unknown_lanes(s, d.addr);
  const bool data_known = (unknown_lanes(s, d.data) & writing) == 0;
  std::uint64_t idx[64];
  std::uint64_t data_a[64];
  std::uint64_t data_b[64];
  bus_rows(s, d.addr, &BitRef::a, writing, idx);
  bus_rows(s, d.data, &BitRef::a, writing, data_a);
  if (!data_known) bus_rows(s, d.data, &BitRef::b, writing, data_b);
  for (std::uint64_t left = writing; left != 0; left &= left - 1) {
    const int lane = std::countr_zero(left);
    const std::uint64_t m = 1ull << lane;
    const bool wen_b = (s[d.wen.b] & m) != 0;
    if ((unknown_addr & m) != 0) {
      // Possibly-active write to an unknown address: the whole memory is
      // suspect in this lane (CycleSim's all-X rule).
      for (int w = 0; w < d.depth; ++w) {
        const std::size_t at = static_cast<std::size_t>(w) * 64 +
                               static_cast<std::size_t>(lane);
        img.a[at] = wmask;
        img.b[at] = wmask;
      }
      continue;
    }
    if (idx[lane] >= static_cast<std::uint64_t>(d.depth)) {
      continue;  // SRAM decode
    }
    const std::size_t at = static_cast<std::size_t>(idx[lane]) * 64 +
                           static_cast<std::size_t>(lane);
    if (wen_b) {  // wen X or Z: the touched word is unknown
      img.a[at] = wmask;
      img.b[at] = wmask;
      continue;
    }
    const std::uint64_t da = data_a[lane];
    const std::uint64_t db = data_known ? 0 : data_b[lane];
    if (d.byte_enables.empty()) {
      img.a[at] = da;
      img.b[at] = db;
      continue;
    }
    const int lw = d.width / static_cast<int>(d.byte_enables.size());
    for (std::size_t be = 0; be < d.byte_enables.size(); ++be) {
      const bool be_a = (s[d.byte_enables[be].a] & m) != 0;
      const bool be_b = (s[d.byte_enables[be].b] & m) != 0;
      const std::uint64_t lmask = width_mask(lw) << (be * static_cast<std::size_t>(lw));
      if (be_b) {  // undefined enable: the lane's bits are unknown
        img.a[at] |= lmask;
        img.b[at] |= lmask;
      } else if (be_a) {  // enabled: copy the data lane
        img.a[at] = (img.a[at] & ~lmask) | (da & lmask);
        img.b[at] = (img.b[at] & ~lmask) | (db & lmask);
      }  // be == 0: keep
    }
  }
}

void Machine::set_input(rtl::NetId net, const rtl::LVec& value) {
  const rtl::Net& n = compiled_->module().net(net);
  if (n.kind != rtl::NetKind::kInput) {
    throw std::invalid_argument("set_input on non-input net: " + n.name);
  }
  if (value.width() != n.width) {
    throw std::invalid_argument("set_input width mismatch on " + n.name);
  }
  drove(net);
  const NetSlots& ns = compiled_->net_slots(net);
  for (int i = 0; i < n.width; ++i) {
    const rtl::Logic v = value.bit(i);
    const bool a = v == rtl::Logic::k1 || v == rtl::Logic::kX;
    const bool b = v == rtl::Logic::kZ || v == rtl::Logic::kX;
    if (b && ns.b[static_cast<std::size_t>(i)] == kZeroSlot) {
      throw std::invalid_argument(
          "set_input: X/Z on plan-proven two-state bit of " + n.name);
    }
    slots_[static_cast<std::size_t>(ns.a[static_cast<std::size_t>(i)])] =
        a ? ~0ull : 0;
    if (ns.b[static_cast<std::size_t>(i)] != kZeroSlot) {
      slots_[static_cast<std::size_t>(ns.b[static_cast<std::size_t>(i)])] =
          b ? ~0ull : 0;
    }
  }
}

void Machine::set_input(const std::string& name, std::uint64_t value) {
  const rtl::NetId id = find_net(name);
  set_input(id, rtl::LVec::from_uint(value, compiled_->module().net(id).width));
}

void Machine::set_input_bit(const std::string& name, bool value) {
  set_input(name, value ? 1u : 0u);
}

void Machine::set_input_lane(rtl::NetId net, int lane, const rtl::LVec& value) {
  const rtl::Net& n = compiled_->module().net(net);
  if (n.kind != rtl::NetKind::kInput) {
    throw std::invalid_argument("set_input on non-input net: " + n.name);
  }
  if (value.width() != n.width) {
    throw std::invalid_argument("set_input width mismatch on " + n.name);
  }
  check_lane(lane, "set_input_lane");
  drove(net);
  const NetSlots& ns = compiled_->net_slots(net);
  const std::uint64_t m = 1ull << lane;
  for (int i = 0; i < n.width; ++i) {
    const rtl::Logic v = value.bit(i);
    const bool a = v == rtl::Logic::k1 || v == rtl::Logic::kX;
    const bool b = v == rtl::Logic::kZ || v == rtl::Logic::kX;
    if (b && ns.b[static_cast<std::size_t>(i)] == kZeroSlot) {
      throw std::invalid_argument(
          "set_input: X/Z on plan-proven two-state bit of " + n.name);
    }
    std::uint64_t& wa =
        slots_[static_cast<std::size_t>(ns.a[static_cast<std::size_t>(i)])];
    wa = a ? (wa | m) : (wa & ~m);
    if (ns.b[static_cast<std::size_t>(i)] != kZeroSlot) {
      std::uint64_t& wb =
          slots_[static_cast<std::size_t>(ns.b[static_cast<std::size_t>(i)])];
      wb = b ? (wb | m) : (wb & ~m);
    }
  }
}

void Machine::set_input_lane_uint(rtl::NetId net, int lane,
                                  std::uint64_t value) {
  const rtl::Net& n = compiled_->module().net(net);
  if (n.kind != rtl::NetKind::kInput) {
    throw std::invalid_argument("set_input on non-input net: " + n.name);
  }
  if (n.width > 64) {
    throw std::invalid_argument("set_input_lane_uint: " + n.name +
                                " is wider than 64 bits");
  }
  check_lane(lane, "set_input_lane");
  drove(net);
  const NetSlots& ns = compiled_->net_slots(net);
  const std::uint64_t m = 1ull << lane;
  for (int i = 0; i < n.width; ++i) {
    std::uint64_t& wa =
        slots_[static_cast<std::size_t>(ns.a[static_cast<std::size_t>(i)])];
    wa = (wa & ~m) | (((value >> i) & 1) << lane);  // branch-free: random data
    const std::int32_t bs = ns.b[static_cast<std::size_t>(i)];
    if (bs != kZeroSlot) slots_[static_cast<std::size_t>(bs)] &= ~m;
  }
}

void Machine::eval() {
  run(compiled_->comb());
  settled_ = true;
}

void Machine::edge(rtl::NetId clock, rtl::Edge e) {
  if (!settled_) run(compiled_->comb());  // settle pre-edge values
  const StepProgram* step = nullptr;
  for (const StepProgram& s : compiled_->steps()) {
    if (s.clock == clock && s.edge == e) {
      step = &s;
      break;
    }
  }
  if (step != nullptr) {
    run(step->body);
  } else {
    // No process fires on this edge: only the clock net itself moves.
    const NetSlots& cs = compiled_->net_slots(clock);
    slots_[static_cast<std::size_t>(cs.a[0])] =
        e == rtl::Edge::kPos ? ~0ull : 0;
    if (cs.b[0] != kZeroSlot) {
      slots_[static_cast<std::size_t>(cs.b[0])] = 0;
    }
  }
  ++edges_;
  eval();
}

void Machine::edge(const std::string& clock_name, rtl::Edge e) {
  edge(find_net(clock_name), e);
}

rtl::LVec Machine::get(rtl::NetId net, int lane) const {
  check_lane(lane, "get");
  const int width = compiled_->module().net(net).width;
  const NetSlots& ns = compiled_->net_slots(net);
  const std::uint64_t m = 1ull << lane;
  rtl::LVec out = rtl::LVec::zeros(width);
  for (int i = 0; i < width; ++i) {
    const bool a =
        (slots_[static_cast<std::size_t>(ns.a[static_cast<std::size_t>(i)])] &
         m) != 0;
    const bool b =
        (slots_[static_cast<std::size_t>(ns.b[static_cast<std::size_t>(i)])] &
         m) != 0;
    out.set_bit(i, decode(a, b));
  }
  return out;
}

rtl::LVec Machine::get(const std::string& name, int lane) const {
  return get(find_net(name), lane);
}

std::uint64_t Machine::get_uint(const std::string& name, int lane) const {
  const auto v = get(name, lane).to_uint();
  if (!v.has_value()) throw std::runtime_error("net has X/Z bits: " + name);
  return *v;
}

bool Machine::bus_conflict(rtl::NetId net, int lane) const {
  check_lane(lane, "bus_conflict");
  const NetSlots& ns = compiled_->net_slots(net);
  if (ns.conflict < 0) return false;
  return (slots_[static_cast<std::size_t>(ns.conflict)] & (1ull << lane)) != 0;
}

rtl::LVec Machine::mem_word(rtl::MemId mem, std::uint64_t addr,
                            int lane) const {
  check_lane(lane, "mem_word");
  const MemLayout& layout = compiled_->mems().at(static_cast<std::size_t>(mem));
  if (addr >= static_cast<std::uint64_t>(layout.depth)) {
    throw std::out_of_range("csim::Machine::mem_word address out of range");
  }
  const MemImage& img = mems_[static_cast<std::size_t>(mem)];
  const std::size_t at =
      static_cast<std::size_t>(addr) * 64 + static_cast<std::size_t>(lane);
  rtl::LVec out = rtl::LVec::zeros(layout.width);
  for (int i = 0; i < layout.width; ++i) {
    out.set_bit(i, decode((img.a[at] >> i) & 1, (img.b[at] >> i) & 1));
  }
  return out;
}

void Machine::poke_mem(rtl::MemId mem, std::uint64_t addr, int lane,
                       const rtl::LVec& value) {
  check_lane(lane, "poke_mem");
  const MemLayout& layout = compiled_->mems().at(static_cast<std::size_t>(mem));
  if (addr >= static_cast<std::uint64_t>(layout.depth)) {
    throw std::out_of_range("csim::Machine::poke_mem address out of range");
  }
  MemImage& img = mems_[static_cast<std::size_t>(mem)];
  const std::size_t at =
      static_cast<std::size_t>(addr) * 64 + static_cast<std::size_t>(lane);
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  for (int i = 0; i < layout.width && i < 64; ++i) {
    const rtl::Logic v = value.bit(i);
    if (v == rtl::Logic::k1 || v == rtl::Logic::kX) a |= 1ull << i;
    if (v == rtl::Logic::kZ || v == rtl::Logic::kX) b |= 1ull << i;
  }
  img.a[at] = a;
  img.b[at] = b;
  settled_ = false;  // a read port may see the new word
}

void Machine::check_lane(int lane, const char* what) const {
  if (lane < 0 || lane >= lanes_) {
    throw std::invalid_argument(std::string(what) + ": lane out of range");
  }
}

rtl::NetId Machine::find_net(const std::string& name) const {
  const rtl::NetId id = compiled_->module().find_net(name);
  if (id == rtl::kInvalidId) {
    throw std::invalid_argument("no such net: " + name);
  }
  return id;
}

}  // namespace la1::csim
