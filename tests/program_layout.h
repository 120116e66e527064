// The shape of a compiled PEVPM program, for tests that compare two
// compilations: per instruction, its opcode, its jump target and the
// operand cache slot of each of its two operands (-1 when uncached or
// absent).
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/model.h"

namespace testlayout {

using Shape = std::tuple<pevpm::Opcode, std::uint32_t, int, int>;

inline std::vector<Shape> layout(const pevpm::Program& program) {
  std::vector<Shape> shapes;
  for (const pevpm::Instruction& in : program.instructions()) {
    shapes.emplace_back(in.op, in.target, in.cache[0], in.cache[1]);
  }
  return shapes;
}

}  // namespace testlayout
