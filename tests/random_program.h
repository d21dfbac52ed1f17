// RandomProgram: the random programs the property and differential tests
// run. A seed picks the program, so a failing case names its seed.
#ifndef YIELDHIDE_TESTS_RANDOM_PROGRAM_H_
#define YIELDHIDE_TESTS_RANDOM_PROGRAM_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "src/common/rng.h"
#include "src/isa/builder.h"

namespace yieldhide {

// Generates a random but guaranteed-terminating program: straight-line ALU /
// load / store segments plus counted loops (depth <= 2), ending by storing
// r1..r6 to a result area. Data addresses are masked into a small region.
inline isa::Program RandomProgram(uint64_t seed) {
  Rng rng(seed);
  isa::ProgramBuilder builder("random");

  constexpr uint64_t kDataBase = 0x10000;
  constexpr int64_t kDataMask = 0x3ff8;  // 16 KiB region, 8-byte aligned

  // r1..r6: data registers; r7: address scratch; r8, r9: loop counters;
  // r10: data base pointer.
  auto emit_body = [&](int depth, auto&& self) -> void {
    const int segments = 1 + static_cast<int>(rng.NextBelow(4));
    for (int s = 0; s < segments; ++s) {
      switch (rng.NextBelow(depth < 2 ? 6 : 5)) {
        case 0: {  // ALU
          const isa::Reg rd = static_cast<isa::Reg>(1 + rng.NextBelow(6));
          const isa::Reg rs1 = static_cast<isa::Reg>(1 + rng.NextBelow(6));
          const isa::Reg rs2 = static_cast<isa::Reg>(1 + rng.NextBelow(6));
          switch (rng.NextBelow(4)) {
            case 0:
              builder.Add(rd, rs1, rs2);
              break;
            case 1:
              builder.Sub(rd, rs1, rs2);
              break;
            case 2:
              builder.Xor(rd, rs1, rs2);
              break;
            default:
              builder.Addi(rd, rs1, static_cast<int64_t>(rng.NextBelow(100)));
              break;
          }
          break;
        }
        case 1: {  // load from masked address
          const isa::Reg rd = static_cast<isa::Reg>(1 + rng.NextBelow(6));
          const isa::Reg rs = static_cast<isa::Reg>(1 + rng.NextBelow(6));
          builder.Andi(7, rs, kDataMask);
          builder.Add(7, 7, 10);
          builder.Load(rd, 7, 0);
          break;
        }
        case 2: {  // store to masked address
          const isa::Reg rs = static_cast<isa::Reg>(1 + rng.NextBelow(6));
          const isa::Reg rv = static_cast<isa::Reg>(1 + rng.NextBelow(6));
          builder.Andi(7, rs, kDataMask);
          builder.Add(7, 7, 10);
          builder.Store(7, 0, rv);
          break;
        }
        case 3: {  // movi
          builder.Movi(static_cast<isa::Reg>(1 + rng.NextBelow(6)),
                       static_cast<int64_t>(rng.NextBelow(1000)));
          break;
        }
        case 4: {  // conditional skip (forward branch)
          auto skip = builder.NewLabel();
          const isa::Reg a = static_cast<isa::Reg>(1 + rng.NextBelow(6));
          const isa::Reg b = static_cast<isa::Reg>(1 + rng.NextBelow(6));
          builder.Beq(a, b, skip);
          builder.Addi(1, 1, 1);
          builder.Xor(2, 2, 1);
          builder.Bind(skip);
          break;
        }
        default: {  // counted loop
          const isa::Reg counter = depth == 0 ? 8 : 9;
          builder.Movi(counter, static_cast<int64_t>(1 + rng.NextBelow(6)));
          auto top = builder.NewLabel();
          builder.Bind(top);
          self(depth + 1, self);
          builder.Addi(counter, counter, -1);
          builder.Bne(counter, 0, top);
          break;
        }
      }
    }
  };
  emit_body(0, emit_body);

  // Epilogue: publish r1..r6 through the caller-provided result base in r15
  // (kept as an input so harnesses can give each coroutine its own slot).
  for (isa::Reg r = 1; r <= 6; ++r) {
    builder.Store(15, (r - 1) * 8, r);
  }
  builder.Halt();

  auto program = std::move(builder).Build();
  EXPECT_TRUE(program.ok()) << program.status();
  (void)kDataBase;
  return std::move(program).value();
}

}  // namespace yieldhide

#endif  // YIELDHIDE_TESTS_RANDOM_PROGRAM_H_
