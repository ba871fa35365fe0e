// Execution semantics of compiled E-code filters.
#include <gtest/gtest.h>

#include "dproc/ecode/ecode.hpp"

namespace dproc::ecode {
namespace {

FilterResult run(std::string_view source, std::vector<Sample> input = {},
                 const CompileEnv& env = {}, VmLimits limits = {}) {
  auto filter = Filter::compile(source, env);
  EXPECT_TRUE(filter.is_ok()) << filter.status().to_string();
  if (!filter.is_ok()) return {};
  auto result = filter.value().run(input, limits);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return result.is_ok() ? std::move(result).value() : FilterResult{};
}

double ret(std::string_view source, std::vector<Sample> input = {},
           const CompileEnv& env = {}) {
  auto result = run(source, std::move(input), env);
  EXPECT_TRUE(result.return_value.has_value()) << source;
  return result.return_value.value_or(0.0);
}

TEST(Vm, ReturnLiteral) { EXPECT_DOUBLE_EQ(ret("return 42;"), 42.0); }

TEST(Vm, IntegerArithmeticMatchesC) {
  EXPECT_DOUBLE_EQ(ret("return 7 + 3 * 2;"), 13.0);
  EXPECT_DOUBLE_EQ(ret("return 7 / 2;"), 3.0);       // int division
  EXPECT_DOUBLE_EQ(ret("return -7 / 2;"), -3.0);     // truncation toward zero
  EXPECT_DOUBLE_EQ(ret("return 7 % 3;"), 1.0);
  EXPECT_DOUBLE_EQ(ret("return -7 % 3;"), -1.0);
  EXPECT_DOUBLE_EQ(ret("return (1 + 2) * 3;"), 9.0);
}

TEST(Vm, DoubleArithmetic) {
  EXPECT_DOUBLE_EQ(ret("return 7.0 / 2;"), 3.5);  // promotion
  EXPECT_DOUBLE_EQ(ret("return 1.5 + 2.25;"), 3.75);
  EXPECT_DOUBLE_EQ(ret("return 50e6 / 1e6;"), 50.0);
}

TEST(Vm, TruncationOnIntAssignment) {
  EXPECT_DOUBLE_EQ(ret("int x = 2.9; return x;"), 2.0);
  EXPECT_DOUBLE_EQ(ret("int x = -2.9; return x;"), -2.0);
  EXPECT_DOUBLE_EQ(ret("int x = 1; x += 1.5; return x;"), 2.0);
}

TEST(Vm, ComparisonsAndLogic) {
  EXPECT_DOUBLE_EQ(ret("return 3 < 5;"), 1.0);
  EXPECT_DOUBLE_EQ(ret("return 5 <= 4;"), 0.0);
  EXPECT_DOUBLE_EQ(ret("return 2 == 2 && 3 != 4;"), 1.0);
  EXPECT_DOUBLE_EQ(ret("return 0 || 2;"), 1.0);  // normalized to 0/1
  EXPECT_DOUBLE_EQ(ret("return !3;"), 0.0);
  EXPECT_DOUBLE_EQ(ret("return !0;"), 1.0);
  EXPECT_DOUBLE_EQ(ret("return 1.5 > 1;"), 1.0);
}

TEST(Vm, ShortCircuitSkipsSideEffects) {
  EXPECT_DOUBLE_EQ(
      ret("int i = 0; int x = 0 && (i = 1); return i;"), 0.0);
  EXPECT_DOUBLE_EQ(
      ret("int i = 0; int x = 1 || (i = 1); return i;"), 0.0);
  EXPECT_DOUBLE_EQ(
      ret("int i = 0; int x = 1 && (i = 1); return i;"), 1.0);
}

TEST(Vm, BitwiseAndShifts) {
  EXPECT_DOUBLE_EQ(ret("return 12 & 10;"), 8.0);
  EXPECT_DOUBLE_EQ(ret("return 12 | 10;"), 14.0);
  EXPECT_DOUBLE_EQ(ret("return 12 ^ 10;"), 6.0);
  EXPECT_DOUBLE_EQ(ret("return ~0;"), -1.0);
  EXPECT_DOUBLE_EQ(ret("return 1 << 10;"), 1024.0);
  EXPECT_DOUBLE_EQ(ret("return -16 >> 2;"), -4.0);  // arithmetic shift
}

TEST(Vm, TernarySelects) {
  EXPECT_DOUBLE_EQ(ret("return 1 ? 10 : 20;"), 10.0);
  EXPECT_DOUBLE_EQ(ret("return 0 ? 10 : 20;"), 20.0);
  EXPECT_DOUBLE_EQ(ret("return 0 ? 1 : 2.5;"), 2.5);
}

TEST(Vm, IfElseChains) {
  const char* source =
      "int x = 7;\n"
      "if (x > 10) { return 1; } else if (x > 5) { return 2; } else { return 3; }";
  EXPECT_DOUBLE_EQ(ret(source), 2.0);
}

TEST(Vm, ForLoopSums) {
  EXPECT_DOUBLE_EQ(
      ret("int sum = 0; for (int i = 1; i <= 10; i = i + 1) sum += i; return sum;"),
      55.0);
}

TEST(Vm, WhileLoopWithBreakContinue) {
  const char* source =
      "int sum = 0; int i = 0;\n"
      "while (1) {\n"
      "  i = i + 1;\n"
      "  if (i > 10) break;\n"
      "  if (i % 2) continue;\n"
      "  sum += i;\n"
      "}\n"
      "return sum;";  // 2+4+6+8+10
  EXPECT_DOUBLE_EQ(ret(source), 30.0);
}

TEST(Vm, NestedLoopsAndBreakInnerOnly) {
  const char* source =
      "int count = 0;\n"
      "for (int i = 0; i < 3; ++i) {\n"
      "  for (int j = 0; j < 10; ++j) {\n"
      "    if (j == 2) break;\n"
      "    count++;\n"
      "  }\n"
      "}\n"
      "return count;";
  EXPECT_DOUBLE_EQ(ret(source), 6.0);
}

TEST(Vm, IncrementDecrementSemantics) {
  EXPECT_DOUBLE_EQ(ret("int i = 5; int x = i++; return x * 100 + i;"), 506.0);
  EXPECT_DOUBLE_EQ(ret("int i = 5; int x = ++i; return x * 100 + i;"), 606.0);
  EXPECT_DOUBLE_EQ(ret("int i = 5; int x = i--; return x * 100 + i;"), 504.0);
  EXPECT_DOUBLE_EQ(ret("double d = 1.5; ++d; return d;"), 2.5);
}

TEST(Vm, CompoundAssignments) {
  EXPECT_DOUBLE_EQ(ret("int x = 10; x -= 3; x *= 2; x /= 4; x %= 2; return x;"),
                   1.0);
  EXPECT_DOUBLE_EQ(ret("double x = 10; x /= 4; return x;"), 2.5);
}

TEST(Vm, InputFieldsReadable) {
  std::vector<Sample> input{{7, 3.5, 2.0, 1234}};
  EXPECT_DOUBLE_EQ(ret("return input[0].value;", input), 3.5);
  EXPECT_DOUBLE_EQ(ret("return input[0].last_value_sent;", input), 2.0);
  EXPECT_DOUBLE_EQ(ret("return input[0].id;", input), 7.0);
  EXPECT_DOUBLE_EQ(ret("return input[0].timestamp;", input), 1234.0);
}

TEST(Vm, OutputCopiesWholeSample) {
  std::vector<Sample> input{{7, 3.5, 2.0, 1234}};
  auto result = run("output[0] = input[0];", input);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 0);
  EXPECT_EQ(result.outputs[0].second, input[0]);
}

TEST(Vm, OutputFieldWrites) {
  auto result = run("output[2].value = 9.5; output[2].id = 4;");
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 2);
  EXPECT_DOUBLE_EQ(result.outputs[0].second.value, 9.5);
  EXPECT_EQ(result.outputs[0].second.id, 4);
}

TEST(Vm, OutputsReportedInIndexOrder) {
  auto result = run("output[5].value = 5; output[1].value = 1; output[3].value = 3;");
  ASSERT_EQ(result.outputs.size(), 3u);
  EXPECT_EQ(result.outputs[0].first, 1);
  EXPECT_EQ(result.outputs[1].first, 3);
  EXPECT_EQ(result.outputs[2].first, 5);
}

TEST(Vm, LocalSampleRoundTrip) {
  std::vector<Sample> input{{1, 10.0, 0.0, 0}};
  auto result = run(
      "sample s = input[0]; s.value = s.value * 2; output[0] = s;", input);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.outputs[0].second.value, 20.0);
  EXPECT_EQ(result.outputs[0].second.id, 1);
}

TEST(Vm, PaperFigure3FilterBehaves) {
  CompileEnv env;
  env.constants = {{"LOADAVG", 0}, {"DISKUSAGE", 1}, {"FREEMEM", 2},
                   {"CACHE_MISS", 3}};
  const char* source = R"({
    int i = 0;
    if (input[LOADAVG].value > 2) {
      output[i] = input[LOADAVG];
      i = i + 1;
    }
    if (input[DISKUSAGE].value > 10000 && input[FREEMEM].value < 50e6) {
      output[i] = input[DISKUSAGE];
      i = i + 1;
      output[i] = input[FREEMEM];
      i = i + 1;
    }
    if (input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent) {
      output[i] = input[CACHE_MISS];
      i = i + 1;
    }
  })";

  // Quiet system: nothing passes.
  std::vector<Sample> quiet{
      {0, 0.5, 0.5, 0}, {1, 100, 100, 0}, {2, 400e6, 400e6, 0}, {3, 50, 50, 0}};
  EXPECT_TRUE(run(source, quiet, env).outputs.empty());

  // Loaded system: loadavg and both disk/mem conditions fire, plus cache.
  std::vector<Sample> loaded{
      {0, 3.0, 0.5, 0}, {1, 20000, 100, 0}, {2, 10e6, 400e6, 0}, {3, 99, 50, 0}};
  auto result = run(source, loaded, env);
  ASSERT_EQ(result.outputs.size(), 4u);
  EXPECT_EQ(result.outputs[0].second.id, 0);
  EXPECT_EQ(result.outputs[1].second.id, 1);
  EXPECT_EQ(result.outputs[2].second.id, 2);
  EXPECT_EQ(result.outputs[3].second.id, 3);
}

// --- runtime failures -----------------------------------------------------

TEST(Vm, DivisionByZeroIsRuntimeError) {
  auto filter = Filter::compile("int x = 0; return 1 / x;");
  ASSERT_TRUE(filter.is_ok());
  auto result = filter.value().run({});
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("division by zero"),
            std::string::npos);
}

TEST(Vm, ModuloByZeroIsRuntimeError) {
  auto filter = Filter::compile("int x = 0; return 1 % x;");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_FALSE(filter.value().run({}).is_ok());
}

TEST(Vm, InputIndexOutOfRange) {
  auto filter = Filter::compile("return input[2].value;");
  ASSERT_TRUE(filter.is_ok());
  std::vector<Sample> input{{0, 1, 0, 0}};
  auto result = filter.value().run(input);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("out of range"), std::string::npos);
}

TEST(Vm, NegativeIndexRejected) {
  auto filter = Filter::compile("output[0-1].value = 1;");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_FALSE(filter.value().run({}).is_ok());
}

TEST(Vm, OutputIndexLimitEnforced) {
  auto filter = Filter::compile("output[1000].value = 1;");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_FALSE(filter.value().run({}).is_ok());
}

TEST(Vm, InfiniteLoopRunsOutOfFuel) {
  auto filter = Filter::compile("while (1) { }");
  ASSERT_TRUE(filter.is_ok());
  auto result = filter.value().run({}, VmLimits{.max_instructions = 10'000});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Vm, ShiftOutOfRangeRejected) {
  auto filter = Filter::compile("return 1 << 70;");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_FALSE(filter.value().run({}).is_ok());
}

TEST(Vm, HaltWithoutReturnGivesNoValue) {
  auto result = run("int x = 1;");
  EXPECT_FALSE(result.return_value.has_value());
}

TEST(Vm, EarlyReturnSkipsRest) {
  auto result = run("output[0].value = 1; return 5; output[1].value = 2;");
  EXPECT_EQ(result.outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.return_value.value(), 5.0);
}

TEST(Vm, InstructionCountReported) {
  auto result = run("return 1;");
  EXPECT_GT(result.instructions_executed, 0u);
  EXPECT_LT(result.instructions_executed, 10u);
}

TEST(Vm, BuiltinFunctions) {
  EXPECT_DOUBLE_EQ(ret("return abs(0-5);"), 5.0);
  EXPECT_DOUBLE_EQ(ret("return abs(3.5);"), 3.5);
  EXPECT_DOUBLE_EQ(ret("return min(2, 7);"), 2.0);
  EXPECT_DOUBLE_EQ(ret("return max(2.5, 7);"), 7.0);
  EXPECT_DOUBLE_EQ(ret("return floor(2.9);"), 2.0);
  EXPECT_DOUBLE_EQ(ret("return ceil(2.1);"), 3.0);
  EXPECT_DOUBLE_EQ(ret("return sqrt(16);"), 4.0);
  EXPECT_DOUBLE_EQ(ret("return min(max(1, 5), 3);"), 3.0);  // nesting
}

TEST(Vm, BuiltinInFilterContext) {
  std::vector<Sample> input{{0, 100.0, 80.0, 0}};
  // Relative change as a function: |v - last| / max(|last|, 1).
  const char* source =
      "double change = abs(input[0].value - input[0].last_value_sent) /"
      " max(abs(input[0].last_value_sent), 1.0);"
      "if (change > 0.15) output[0] = input[0];"
      "return change;";
  EXPECT_NEAR(ret(source, input), 0.25, 1e-12);
  EXPECT_EQ(run(source, input).outputs.size(), 1u);
}

TEST(Vm, SqrtOfNegativeIsRuntimeError) {
  auto filter = Filter::compile("return sqrt(0-1);");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_FALSE(filter.value().run({}).is_ok());
}

TEST(Vm, UnknownFunctionRejectedAtCompile) {
  auto filter = Filter::compile("return frobnicate(1);");
  ASSERT_FALSE(filter.is_ok());
  EXPECT_NE(filter.status().message().find("unknown function"),
            std::string::npos);
}

TEST(Vm, BuiltinArityChecked) {
  EXPECT_FALSE(Filter::compile("return abs(1, 2);").is_ok());
  EXPECT_FALSE(Filter::compile("return min(1);").is_ok());
}

TEST(Vm, BuiltinArgumentTypeChecked) {
  EXPECT_FALSE(Filter::compile("return abs(input[0]);").is_ok());
}

TEST(Vm, LocalsShadowBuiltinNamesAsVariables) {
  // `min` used as a variable still works when declared.
  EXPECT_DOUBLE_EQ(ret("int min = 4; return min + 1;"), 5.0);
}

// --- sample-operand coercion errors ------------------------------------------
//
// Sema statically rejects samples in numeric contexts, so these paths are
// only reachable from hand-assembled (or corrupted) bytecode — which is
// exactly what a kernel accepting programs over the wire must survive. The
// old behavior silently coerced the sample to 0/false; it must now be a
// clean kInvalidArgument naming the pc.

/// input[0] pushed as a whole sample, then fed to `op`.
Bytecode sample_into(Op op) {
  Bytecode code;
  code.insns.push_back(Insn{.op = Op::kLoadInputImm, .arg = 0});
  code.insns.push_back(Insn{.op = Op::kPushInt, .imm_i = 1});
  code.insns.push_back(Insn{.op = op});
  code.insns.push_back(Insn{.op = Op::kHalt});
  return code;
}

TEST(Vm, SampleOperandInArithmeticIsInvalidArgument) {
  for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMod,
                      Op::kBitAnd, Op::kShl, Op::kLt, Op::kEq}) {
    Vm vm;
    FilterResult result;
    std::vector<Sample> input{{7, 1.5, 0.5, 0}};
    const Status status = vm.run(sample_into(op), input, result);
    ASSERT_FALSE(status) << "op " << static_cast<int>(op);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("sample operand in numeric context"),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("pc="), std::string::npos)
        << status.message();  // names the faulting pc
  }
}

TEST(Vm, SampleOperandInUnaryAndReturnIsInvalidArgument) {
  for (const Op op : {Op::kNeg, Op::kNot, Op::kBitNot, Op::kToInt,
                      Op::kToDouble, Op::kToBool, Op::kReturn}) {
    Bytecode code;
    code.insns.push_back(Insn{.op = Op::kLoadInputImm, .imm_i = 0});
    code.insns.push_back(Insn{.op = op});
    code.insns.push_back(Insn{.op = Op::kHalt});
    Vm vm;
    FilterResult result;
    std::vector<Sample> input{{7, 1.5, 0.5, 0}};
    const Status status = vm.run(code, input, result);
    ASSERT_FALSE(status) << "op " << static_cast<int>(op);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("sample operand"), std::string::npos);
  }
}

TEST(Vm, SampleOperandAsJumpConditionIsInvalidArgument) {
  Bytecode code;
  code.insns.push_back(Insn{.op = Op::kLoadInputImm, .imm_i = 0});
  code.insns.push_back(Insn{.op = Op::kJmpIfFalse, .arg = 3});
  code.insns.push_back(Insn{.op = Op::kHalt});
  code.insns.push_back(Insn{.op = Op::kHalt});
  Vm vm;
  FilterResult result;
  std::vector<Sample> input{{7, 1.5, 0.5, 0}};
  const Status status = vm.run(code, input, result);
  ASSERT_FALSE(status);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// --- limits and pooling -----------------------------------------------------

TEST(Vm, ConstructorClampsInstructionLimitToHardCeiling) {
  // The fuel counter is only checked at control-flow edges; a limit near
  // 2^64 would make exhaustion unreachable. The constructor clamps.
  Vm vm{VmLimits{.max_instructions = ~0ull}};
  EXPECT_EQ(vm.limits().max_instructions, VmLimits::kMaxInstructionLimit);
  Vm sane{VmLimits{.max_instructions = 500}};
  EXPECT_EQ(sane.limits().max_instructions, 500u);
}

TEST(Vm, PooledEvalMatchesDirectRun) {
  auto filter = Filter::compile("output[0] = input[0]; return 9;");
  ASSERT_TRUE(filter.is_ok());
  VmPool pool;
  std::vector<Sample> input{{3, 2.5, 1.0, 77}};
  {
    auto lease = filter.value().eval(pool, input);
    ASSERT_TRUE(lease.is_ok()) << lease.status().to_string();
    EXPECT_DOUBLE_EQ(lease.value().result().return_value.value_or(0), 9.0);
    ASSERT_EQ(lease.value().result().outputs.size(), 1u);
    EXPECT_EQ(lease.value().result().outputs[0].second, input[0]);
    EXPECT_EQ(pool.created(), 1u);
  }
  {
    auto again = filter.value().eval(pool, input);
    ASSERT_TRUE(again.is_ok());
  }
  EXPECT_EQ(pool.created(), 1u);  // the slot was recycled, not regrown
}

TEST(Vm, DisassemblyNonEmpty) {
  auto filter = Filter::compile("int i = 0; i = i + 1;");
  ASSERT_TRUE(filter.is_ok());
  const std::string disasm = filter.value().bytecode().disassemble();
  EXPECT_NE(disasm.find("store_local"), std::string::npos);
  EXPECT_NE(disasm.find("halt"), std::string::npos);
}

}  // namespace
}  // namespace dproc::ecode
