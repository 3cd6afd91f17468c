// Code generator tests: structural checks on the emitted C++, plus a full
// integration loop — dbtc-generate, compile with the system C++ compiler,
// run against an event stream, and compare with the trigger interpreter
// (the paper's standalone-mode pipeline end to end).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unistd.h>
#include <sstream>

#include "src/catalog/catalog.h"
#include "src/common/rng.h"
#include "src/codegen/cpp_gen.h"
#include "src/compiler/compile.h"
#include "src/runtime/engine.h"
#include "src/sql/parser.h"
#include "src/workload/orderbook.h"

#ifndef DBTC_BINARY
#define DBTC_BINARY "dbtc"
#endif
#ifndef DBT_RUNTIME_INCLUDE_DIR
#define DBT_RUNTIME_INCLUDE_DIR "."
#endif

namespace dbtoaster {
namespace {

Catalog Fig2Catalog() {
  Catalog cat;
  (void)cat.AddRelation(Schema("R", {{"A", Type::kInt}, {"B", Type::kInt}}));
  (void)cat.AddRelation(Schema("S", {{"B", Type::kInt}, {"C", Type::kInt}}));
  (void)cat.AddRelation(Schema("T", {{"C", Type::kInt}, {"D", Type::kInt}}));
  return cat;
}

TEST(CodegenStructure, Fig2HandlersMatchPaperShape) {
  auto program = compiler::CompileQuery(
      Fig2Catalog(), "q",
      "select sum(R.A * T.D) from R, S, T where R.B = S.B and S.C = T.C");
  ASSERT_TRUE(program.ok());
  auto code = codegen::GenerateCpp(program.value());
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  const std::string& src = code.value();

  // The §3 listing: declarations for q and the four auxiliary maps plus the
  // count map, and one sign-parameterized handler per relation (the insert
  // and delete bodies of the paper unified over the event multiplicity):
  // the trigger body vec_<R> over column lanes, and the typed on_<R>.
  EXPECT_NE(src.find("void vec_R([[maybe_unused]] const int64_t* c0"),
            std::string::npos);
  EXPECT_NE(src.find("void on_R(int64_t arg_a, int64_t arg_b"),
            std::string::npos);
  EXPECT_NE(src.find("void on_T(int64_t arg_c, int64_t arg_d"),
            std::string::npos);
  EXPECT_EQ(src.find("void on_insert_"), std::string::npos);
  EXPECT_EQ(src.find("void on_delete_"), std::string::npos);
  EXPECT_NE(src.find(", const int64_t sign)"), std::string::npos);
  EXPECT_NE(src.find("dbt::Map<std::tuple<int64_t, int64_t>, int64_t> m5_"),
            std::string::npos);
  // Inlined straight-line code: the q update is a single map lookup per
  // row, with row i's B read from lane c1.
  EXPECT_NE(src.find("m1_.get(std::make_tuple(c1[i]))"), std::string::npos);
  // The foreach from the paper's on_insert_R: slice iteration over q1,
  // compiled through a secondary slice index (the paper's nested-map
  // layout, q_1_bc[b][c]).
  EXPECT_NE(src.find("dbt::SliceIndex<"), std::string::npos);
  EXPECT_NE(src.find(".lookup(std::make_tuple("), std::string::npos);
}

TEST(CodegenStructure, RejectsNothingInSupportedFragment) {
  Catalog cat = workload::OrderBookCatalog();
  for (const std::string& q :
       {workload::VwapQuery(), workload::MarketMakerQuery(),
        workload::BestBidQuery()}) {
    auto program = compiler::CompileQuery(cat, "q", q);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    auto code = codegen::GenerateCpp(program.value());
    EXPECT_TRUE(code.ok()) << q << ": " << code.status().ToString();
  }
}

/// The lines of the generated member function whose signature starts with
/// `head`, through its closing brace at class-member indentation.
std::string MemberBody(const std::string& src, const std::string& head) {
  const size_t at = src.find(head);
  if (at == std::string::npos) return "";
  const size_t end = src.find("\n  }\n", at);
  return src.substr(at, end == std::string::npos ? end : end - at);
}

// One generated trigger body per relation: every trigger compiles to one
// vec_<R>, whatever its statement kinds (delta, MIN/MAX multiset, hybrid
// re-evaluation, LHS iteration) or size, and on_<R> only forwards its row
// to it as one-element lanes. tools/lint_gen.sh checks the same on the
// checked-in bench headers.
TEST(CodegenStructure, OneTriggerBodyPerRelation) {
  Catalog cat = workload::OrderBookCatalog();
  for (const std::string& q :
       {workload::VwapQuery(), workload::MarketMakerQuery(),
        workload::BestBidQuery()}) {
    auto program = compiler::CompileQuery(cat, "q", q);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    auto code = codegen::GenerateCpp(program.value());
    ASSERT_TRUE(code.ok()) << code.status().ToString();
    const std::string& src = code.value();
    EXPECT_EQ(src.find("emission budget"), std::string::npos) << q;
    for (const auto& t : program.value().triggers) {
      const std::string rel = t.relation;
      const std::string vec = "void vec_" + rel + "(";
      ASSERT_NE(src.find(vec), std::string::npos) << q << ": " << rel;
      EXPECT_EQ(src.find(vec, src.find(vec) + 1), std::string::npos)
          << q << ": two bodies for " << rel;
      const std::string on = MemberBody(src, "void on_" + rel + "(");
      ASSERT_FALSE(on.empty()) << q << ": " << rel;
      EXPECT_NE(on.find("vec_" + rel + "(&arg_"), std::string::npos) << on;
      for (const char* banned : {"upd_", "pend", "_.", "_read(", "entries("}) {
        EXPECT_EQ(on.find(banned), std::string::npos)
            << q << ": on_" << rel << " uses " << banned << "\n" << on;
      }
      EXPECT_NE(src.find("vec_" + rel + "(c0, "), std::string::npos)
          << q << ": on_batch_" << rel << " does not call vec_" << rel;
    }
  }
}

// ---------- integration: generate -> g++ -> run -> compare ----------

struct IntegrationCase {
  const char* name;
  std::string schema_sql;
  std::string query;
  std::string stream_schema;  // relations to generate random events for
};

std::string RunCommand(const std::string& cmd, int* exit_code) {
  std::string full = cmd + " 2>&1";
  FILE* pipe = popen(full.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buf[4096];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  *exit_code = pclose(pipe);
  return output;
}

/// Generic standalone harness: reads events from stdin ("I|D <REL> <v>..."),
/// dispatches them, prints every view's rows sorted at EOF.
const char kHarness[] = R"cpp(
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>
#include "generated.hpp"

template <typename Tuple, size_t... I>
void PrintTupleImpl(std::ostream& os, const Tuple& t,
                    std::index_sequence<I...>) {
  ((os << (I ? "," : "") << std::get<I>(t)), ...);
}
template <typename... Ts>
std::string TupleString(const std::tuple<Ts...>& t) {
  std::ostringstream os;
  os.precision(9);
  PrintTupleImpl(os, t, std::make_index_sequence<sizeof...(Ts)>());
  return os.str();
}
template <typename RowVec>
void PrintRows(const RowVec& rows) {
  std::vector<std::string> out;
  for (const auto& r : rows) out.push_back(TupleString(r));
  std::sort(out.begin(), out.end());
  for (const auto& s : out) std::cout << "(" << s << ")";
  std::cout << "\n";
}

int main() {
  dbtoaster_gen::Program p;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream is(line);
    std::string op, rel;
    is >> op >> rel;
    std::vector<dbt::Value> tuple;
    int64_t v;
    while (is >> v) tuple.emplace_back(v);
    p.on_event(rel, op == "I", tuple);
  }
  PrintRows(p.view_q0());
  return 0;
}
)cpp";

class CodegenIntegration : public ::testing::TestWithParam<int> {};

TEST_P(CodegenIntegration, GeneratedBinaryMatchesInterpreter) {
  std::vector<IntegrationCase> cases = {
      {"fig2",
       "create table R(A int, B int); create table S(B int, C int); "
       "create table T(C int, D int);",
       "select sum(R.A * T.D) from R, S, T where R.B = S.B and S.C = T.C",
       ""},
      {"grouped_minmax",
       "create table R(A int, B int);",
       "select B, sum(A), count(*) from R group by B", ""},
      {"vwap_hybrid",
       "create table BIDS(ID int, BROKER_ID int, PRICE int, VOLUME int);",
       workload::VwapQuery(), ""},
  };
  const IntegrationCase& c = cases[static_cast<size_t>(GetParam())];

  std::string dir =
      ::testing::TempDir() + "/dbtc_it_" + c.name + "_" +
      std::to_string(::getpid());
  ASSERT_EQ(system(("mkdir -p " + dir).c_str()), 0);

  // 1. Write the script and run dbtc.
  {
    std::ofstream f(dir + "/script.sql");
    f << c.schema_sql << "\n" << c.query << ";\n";
  }
  int rc = 0;
  std::string out = RunCommand(std::string(DBTC_BINARY) + " " + dir +
                                   "/script.sql -o " + dir + "/generated.hpp",
                               &rc);
  ASSERT_EQ(rc, 0) << out;

  // 2. Compile the harness with the system compiler.
  {
    std::ofstream f(dir + "/harness.cc");
    f << kHarness;
  }
  // -pthread: generated sharded programs reference the worker pool (inert
  // at the default single thread, but the symbols must link).
  out = RunCommand("c++ -std=c++20 -O1 -pthread -I" + dir + " -I" +
                       std::string(DBT_RUNTIME_INCLUDE_DIR) + " " + dir +
                       "/harness.cc -o " + dir + "/harness",
                   &rc);
  ASSERT_EQ(rc, 0) << out;

  // 3. Build the interpreter-side engine and a random stream.
  auto script = sql::ParseScript(c.schema_sql);
  ASSERT_TRUE(script.ok());
  Catalog cat;
  for (const auto& t : script.value().tables) {
    ASSERT_TRUE(cat.AddRelation(t).ok());
  }
  auto program = compiler::CompileQuery(cat, "q0", c.query);
  ASSERT_TRUE(program.ok());
  runtime::Engine engine(std::move(program).value());

  Rng rng(1234);
  std::vector<Event> live;
  std::ofstream stream(dir + "/stream.txt");
  for (int i = 0; i < 300; ++i) {
    Event ev = Event::Insert("", {});
    if (!live.empty() && rng.Chance(0.3)) {
      size_t pick = rng.Uniform(live.size());
      ev = Event::Delete(live[pick].relation, live[pick].tuple);
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      const auto& rels = cat.relations();
      const Schema& schema = rels[rng.Uniform(rels.size())];
      Row tuple;
      for (size_t col = 0; col < schema.num_columns(); ++col) {
        tuple.push_back(Value(rng.Range(0, 5)));
      }
      ev = Event::Insert(schema.name(), std::move(tuple));
      live.push_back(ev);
    }
    ASSERT_TRUE(engine.OnEvent(ev).ok());
    stream << (ev.kind == EventKind::kInsert ? "I " : "D ") << ev.relation;
    for (const Value& v : ev.tuple) stream << " " << v.AsInt();
    stream << "\n";
  }
  stream.close();

  // 4. Run the generated binary and compare against the interpreter's view.
  out = RunCommand(dir + "/harness < " + dir + "/stream.txt", &rc);
  ASSERT_EQ(rc, 0) << out;

  auto view = engine.View("q0");
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  std::vector<std::string> rows;
  for (const auto& [row, mult] : view.value().rows) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) s += ",";
      char buf[64];
      snprintf(buf, sizeof(buf), "%.9g", row[i].AsDouble());
      s += buf;
    }
    rows.push_back(s);
  }
  std::sort(rows.begin(), rows.end());
  std::string want;
  for (const auto& r : rows) want += "(" + r + ")";
  want += "\n";
  EXPECT_EQ(out, want) << c.name;
}

std::string IntegrationCaseName(const ::testing::TestParamInfo<int>& info) {
  static const char* names[] = {"fig2", "grouped_minmax", "vwap_hybrid"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(All, CodegenIntegration, ::testing::Range(0, 3),
                         IntegrationCaseName);

}  // namespace
}  // namespace dbtoaster
