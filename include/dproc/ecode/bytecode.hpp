// E-code bytecode.
//
// The paper's E-code generates native binary at the publishing host; this
// reproduction compiles to a compact stack bytecode executed by a fueled VM
// instead (see DESIGN.md for why the substitution preserves the system's
// behaviour). Every store instruction leaves the stored value on the stack,
// giving C's assignment-as-expression semantics; statement contexts emit an
// explicit kPop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dproc/ecode/ast.hpp"

namespace dproc::ecode {

enum class Op : std::uint8_t {
  kPushInt,      // push imm_i
  kPushFloat,    // push imm_f
  kLoadLocal,    // push locals[arg]
  kStoreLocal,   // locals[arg] = top (value stays)
  kDup,
  kPop,
  kSwap,

  kLoadInput,    // pop idx; push input[idx] (sample)
  kLoadOutput,   // pop idx; push output[idx] (sample; zero if unwritten)
  kStoreOutput,  // pop value, pop idx; output[idx] = value; push value
  kFieldGet,     // pop sample; push sample.field(arg)
  kOutputFieldSet,  // pop value, pop idx; output[idx].field(arg) = value; push value
  kLocalFieldSet,   // pop value; locals[arg].field(arg2) = value; push value

  kAdd, kSub, kMul, kDiv, kMod,
  kNeg, kNot, kBitNot,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  kLt, kLe, kGt, kGe, kEq, kNe,

  kToInt,     // truncate top to int
  kToDouble,  // widen top to double
  kToBool,    // top = (top != 0) as int
  kPushZeroSample,  // push a zero-initialized sample (declaration default)
  kCallBuiltin,     // pop arg(arg2) args; push builtin(arg) result
  kCallSketch,      // pop arg(arg2) args; push sketch-host fn(arg) result

  kJmp,         // pc = arg
  kJmpIfFalse,  // pop; if zero pc = arg
  kJmpIfTrue,   // pop; if nonzero pc = arg

  kReturn,      // pop return value; halt
  kHalt,        // end of program, no return value

  // --- superinstructions ---------------------------------------------------
  // Emitted only by the bytecode peephole pass (never by the compiler).
  // Each carries `width` = number of plain instructions it replaces, so
  // fuel accounting is identical to unoptimized execution.
  kLoadInputImm,      // push input[imm_i]                  [push_int; load_input]
  kLoadInputField,    // pop idx; push input[idx].field(arg) [load_input; field_get]
  kLoadInputFieldImm, // push input[imm_i].field(arg)  [push_int; load_input; field_get]
  kAddImmI,           // top = top + imm_i (int imm, numeric promotion) [push_int; add]
  kStoreLocalPop,     // locals[arg] = pop()                [store_local; pop]
  kCmpJmpIfFalse,     // pop b, a; if !cmp<arg2>(a, b) pc = arg  [cmp; jmp_if_false]
  kCmpJmpIfTrue,      // pop b, a; if  cmp<arg2>(a, b) pc = arg  [cmp; jmp_if_true]
  kCmpImmJmpIfFalse,  // pop a; if !cmp<arg2>(a, imm) pc = arg   [push; cmp; jmp_if_false]
  kCmpImmJmpIfTrue,   // pop a; if  cmp<arg2>(a, imm) pc = arg   [push; cmp; jmp_if_true]
  kStoreOutputPop,    // pop value, pop idx; output[idx] = value [store_output; pop]
  kLocalAddImm,       // locals[arg] += imm_i   [load_local; push_int; add; store_local; pop]
  kCopyInputToOutput, // output[locals[arg]] = input[imm_i]
                      //   [load_local; push_int; load_input; store_output; pop]
};

/// Comparison encoding for the kCmp* superinstructions: arg2 & 7 selects
/// the predicate (offset from kLt), kCmpImmFloatBit selects imm_f over
/// imm_i as the right-hand operand.
inline constexpr std::int32_t kCmpImmFloatBit = 8;

struct Insn {
  Op op;
  std::uint8_t width = 1;  // fuel units: plain instructions this represents
  std::int32_t arg = 0;    // slot / jump target / field
  std::int32_t arg2 = 0;   // kLocalFieldSet: field; kCmp*: predicate
  std::int64_t imm_i = 0;  // kPushInt
  double imm_f = 0.0;      // kPushFloat
};

struct Bytecode {
  std::vector<Insn> insns;
  std::size_t local_slot_count = 0;

  [[nodiscard]] std::string disassemble() const;
};

[[nodiscard]] const char* to_string(Op op);

}  // namespace dproc::ecode
