// Tests for the runtime subsystem (src/runtime/): workload registry,
// dataset spec parsing / provider, end-to-end workload runs with their
// reference checks, determinism, and the JSON results layer.
#include "runtime/workload.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "runtime/dataset.hpp"
#include "runtime/results.hpp"

namespace km {
namespace {

// ---- Registry ----

TEST(Registry, HasAtLeastFiveWorkloads) {
  const auto workloads = WorkloadRegistry::instance().list();
  EXPECT_GE(workloads.size(), 5u);
  std::set<std::string> names;
  for (const Workload* w : workloads) {
    EXPECT_FALSE(std::string(w->name()).empty());
    EXPECT_FALSE(std::string(w->description()).empty());
    names.insert(std::string(w->name()));
  }
  EXPECT_EQ(names.size(), workloads.size());  // unique names
  for (const char* expected :
       {"mst", "components", "pagerank", "pagerank_baseline", "triangles",
        "triangles_baseline", "cliques4", "sort"}) {
    EXPECT_NE(WorkloadRegistry::instance().find(expected), nullptr)
        << expected;
  }
}

TEST(Registry, ListIsSortedByName) {
  const auto workloads = WorkloadRegistry::instance().list();
  for (std::size_t i = 1; i < workloads.size(); ++i) {
    EXPECT_LT(workloads[i - 1]->name(), workloads[i]->name());
  }
}

TEST(Registry, FindUnknownReturnsNull) {
  EXPECT_EQ(WorkloadRegistry::instance().find("no_such_workload"), nullptr);
}

// ---- Dataset specs ----

TEST(DatasetSpec, ParseAndRoundTrip) {
  const auto spec = DatasetSpec::parse("gnp:n=1000,p=0.01");
  EXPECT_EQ(spec.family, "gnp");
  EXPECT_EQ(spec.get_uint("n", 0), 1000u);
  EXPECT_DOUBLE_EQ(spec.get_double("p", 0.0), 0.01);
  EXPECT_EQ(spec.str(), "gnp:n=1000,p=0.01");
}

TEST(DatasetSpec, SetOverridesInPlace) {
  auto spec = DatasetSpec::parse("gnp:n=1000,p=0.01");
  spec.set("n", "512");
  EXPECT_EQ(spec.str(), "gnp:n=512,p=0.01");
  spec.set("maxw", "99");
  EXPECT_EQ(spec.str(), "gnp:n=512,p=0.01,maxw=99");
}

TEST(DatasetSpec, FilePathIsRawRemainder) {
  const auto spec = DatasetSpec::parse("file:/tmp/a,b=c.txt");
  EXPECT_EQ(spec.family, "file");
  EXPECT_EQ(spec.get_string("path", ""), "/tmp/a,b=c.txt");
}

TEST(DatasetSpec, SyntaxErrors) {
  EXPECT_THROW(DatasetSpec::parse(""), DatasetError);
  EXPECT_THROW(DatasetSpec::parse(":n=3"), DatasetError);
  EXPECT_THROW(DatasetSpec::parse("gnp:n"), DatasetError);
  EXPECT_THROW(DatasetSpec::parse("gnp:=3"), DatasetError);
  EXPECT_THROW(DatasetSpec::parse("gnp:n="), DatasetError);
}

TEST(Dataset, SemanticErrors) {
  // Unknown family, missing required parameter, unknown parameter,
  // malformed value, impossible conversion.
  EXPECT_THROW(load_dataset("nope:n=3", DatasetKind::kUndirected, 1),
               DatasetError);
  EXPECT_THROW(load_dataset("gnp:p=0.5", DatasetKind::kUndirected, 1),
               DatasetError);
  EXPECT_THROW(load_dataset("gnp:n=10,p=0.5,zzz=1", DatasetKind::kUndirected, 1),
               DatasetError);
  EXPECT_THROW(load_dataset("gnp:n=abc,p=0.5", DatasetKind::kUndirected, 1),
               DatasetError);
  EXPECT_THROW(load_dataset("lbpr:q=8", DatasetKind::kUndirected, 1),
               DatasetError);
  EXPECT_THROW(load_dataset("gnp:n=10,p=0.5", DatasetKind::kKeys, 1),
               DatasetError);
  EXPECT_THROW(load_dataset("keys:n=10", DatasetKind::kUndirected, 1),
               DatasetError);
}

TEST(Dataset, ProbabilitiesOutsideTheUnitIntervalAreRejected) {
  for (const char* spec :
       {"gnp:n=10,p=2", "gnp:n=10,p=-1", "gnp:n=10,p=1.0001",
        "gnp:n=10,p=-0.0001", "bipartite:a=3,b=3,p=7",
        "bipartite:a=3,b=3,p=-0.5", "ws:n=10,degree=4,beta=5",
        "ws:n=10,degree=4,beta=-1"}) {
    try {
      load_dataset(spec, DatasetKind::kUndirected, 1);
      ADD_FAILURE() << "expected DatasetError for " << spec;
    } catch (const DatasetError& e) {
      EXPECT_NE(std::string(e.what()).find("must be in [0, 1]"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Dataset, ProbabilityEdgesZeroAndOneAreAccepted) {
  EXPECT_EQ(load_dataset("gnp:n=10,p=0", DatasetKind::kUndirected, 1).m, 0u);
  EXPECT_EQ(load_dataset("gnp:n=10,p=1", DatasetKind::kUndirected, 1).m, 45u);
  EXPECT_EQ(
      load_dataset("bipartite:a=3,b=4,p=0", DatasetKind::kUndirected, 1).m,
      0u);
  EXPECT_EQ(
      load_dataset("bipartite:a=3,b=4,p=1", DatasetKind::kUndirected, 1).m,
      12u);
  for (const char* spec :
       {"ws:n=10,degree=4,beta=0", "ws:n=10,degree=4,beta=1"}) {
    const Dataset d = load_dataset(spec, DatasetKind::kUndirected, 1);
    EXPECT_EQ(d.n, 10u) << spec;
    EXPECT_GT(d.m, 0u) << spec;
  }
}

TEST(Dataset, FileLoaderErrorsKeepPositionContext) {
  const std::string path = testing::TempDir() + "km_bad_edges.txt";
  {
    std::ofstream out(path);
    out << "# header\n0 1\n1 bogus\n";
  }
  try {
    load_dataset("file:" + path, DatasetKind::kUndirected, 1);
    FAIL() << "expected DatasetError for malformed edge list";
  } catch (const DatasetError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path + ":3:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'bogus'"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(Dataset, GnpLoadsAndIsDeterministic) {
  const Dataset a = load_dataset("gnp:n=200,p=0.05", DatasetKind::kUndirected, 7);
  const Dataset b = load_dataset("gnp:n=200,p=0.05", DatasetKind::kUndirected, 7);
  const Dataset c = load_dataset("gnp:n=200,p=0.05", DatasetKind::kUndirected, 8);
  EXPECT_EQ(a.n, 200u);
  EXPECT_GT(a.m, 0u);
  EXPECT_EQ(a.graph.edge_list(), b.graph.edge_list());
  EXPECT_NE(a.graph.edge_list(), c.graph.edge_list());  // seed matters
}

TEST(Dataset, ConversionsToDirectedAndWeighted) {
  const Dataset d = load_dataset("ws:n=100,degree=6", DatasetKind::kDirected, 3);
  EXPECT_EQ(d.kind, DatasetKind::kDirected);
  EXPECT_EQ(d.digraph.num_vertices(), 100u);
  EXPECT_EQ(d.m, d.digraph.num_arcs());

  const Dataset w = load_dataset("ws:n=100,degree=6", DatasetKind::kWeighted, 3);
  EXPECT_EQ(w.kind, DatasetKind::kWeighted);
  EXPECT_EQ(w.weighted.num_vertices(), 100u);
  EXPECT_EQ(d.digraph.num_arcs(), 2 * w.weighted.num_edges());
}

TEST(Dataset, LowerBoundGadgetIsDirected) {
  const Dataset d = load_dataset("lbpr:q=16", DatasetKind::kDirected, 1);
  EXPECT_EQ(d.n, 4u * 16 + 1);
  EXPECT_GT(d.m, 0u);
}

TEST(Dataset, KeysFamily) {
  const Dataset a = load_dataset("keys:n=500", DatasetKind::kKeys, 11);
  const Dataset b = load_dataset("keys:n=500", DatasetKind::kKeys, 11);
  EXPECT_EQ(a.keys.size(), 500u);
  EXPECT_EQ(a.keys, b.keys);
}

TEST(Dataset, RmatFamily) {
  const Dataset d = load_dataset("rmat:n=256,m=2000", DatasetKind::kUndirected, 5);
  EXPECT_EQ(d.n, 256u);
  EXPECT_GT(d.m, 500u);
}

// ---- End-to-end workload runs ----

RunResult run_by_name(const std::string& name, const std::string& spec,
                      const RunParams& params) {
  const Workload* w = WorkloadRegistry::instance().find(name);
  EXPECT_NE(w, nullptr) << name;
  const Dataset ds = load_dataset(spec, w->input_kind(), params.seed);
  return run_workload(*w, ds, params);
}

TEST(RunWorkload, MstChecksOutAgainstKruskal) {
  const RunResult r =
      run_by_name("mst", "gnp:n=150,p=0.05", {.k = 4, .seed = 42});
  EXPECT_TRUE(r.check.performed);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
  EXPECT_GT(r.metrics.rounds, 0u);
  EXPECT_EQ(r.params.bandwidth_bits,
            EngineConfig::default_bandwidth(150));  // resolved from 0
  ASSERT_FALSE(r.metrics.timeline.empty());
  std::uint64_t rounds = 0, messages = 0, bits = 0;
  for (const auto& s : r.metrics.timeline) {
    rounds += s.rounds;
    messages += s.messages;
    bits += s.bits;
  }
  EXPECT_EQ(rounds, r.metrics.rounds);
  EXPECT_EQ(messages, r.metrics.messages);
  EXPECT_EQ(bits, r.metrics.bits);
}

TEST(RunWorkload, ComponentsTrianglesSortAllCheckOut) {
  const RunResult comp =
      run_by_name("components", "gnp:n=120,p=0.02", {.k = 4, .seed = 9});
  EXPECT_TRUE(comp.check.performed);
  EXPECT_TRUE(comp.check.ok) << comp.check.detail;

  const RunResult tri =
      run_by_name("triangles", "ws:n=150,degree=8,beta=0.1", {.k = 8, .seed = 9});
  EXPECT_TRUE(tri.check.ok) << tri.check.detail;

  const RunResult srt = run_by_name("sort", "keys:n=4000", {.k = 4, .seed = 9});
  EXPECT_TRUE(srt.check.ok) << srt.check.detail;
}

TEST(RunWorkload, PageRankChecksAgainstFixpoint) {
  const RunResult r =
      run_by_name("pagerank", "ws:n=150,degree=6", {.k = 4, .seed = 5});
  EXPECT_TRUE(r.check.performed);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
  bool has_l1 = false;
  for (const auto& [name, value] : r.outputs) has_l1 |= name == "l1_error";
  EXPECT_TRUE(has_l1);
}

TEST(RunWorkload, DeterministicForFixedSeed) {
  const RunParams params{.k = 4, .seed = 123};
  const RunResult a = run_by_name("triangles", "gnp:n=100,p=0.1", params);
  const RunResult b = run_by_name("triangles", "gnp:n=100,p=0.1", params);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.bits, b.metrics.bits);
  EXPECT_EQ(a.metrics.timeline, b.metrics.timeline);
  EXPECT_EQ(a.outputs, b.outputs);
}

TEST(RunWorkload, KindMismatchThrows) {
  const Workload* mst = WorkloadRegistry::instance().find("mst");
  ASSERT_NE(mst, nullptr);
  const Dataset ds = load_dataset("gnp:n=50,p=0.1", DatasetKind::kUndirected, 1);
  EXPECT_THROW(run_workload(*mst, ds, {.k = 4}), std::invalid_argument);
}

TEST(RunWorkload, CheckCanBeDisabled) {
  const RunResult r = run_by_name("triangles", "gnp:n=80,p=0.1",
                                  {.k = 4, .seed = 1, .check = false});
  EXPECT_FALSE(r.check.performed);
}

// ---- Results JSON ----

TEST(Results, JsonContainsSchemaAndTimeline) {
  const RunResult r =
      run_by_name("mst", "gnp:n=100,p=0.08", {.k = 4, .seed = 2});
  const std::string json = run_result_to_json(r);
  for (const char* needle :
       {"\"schema\": \"km.run_result/v1\"", "\"workload\": \"mst\"",
        "\"spec\": \"gnp:n=100,p=0.08\"", "\"kind\": \"weighted_graph\"",
        "\"rounds\":", "\"messages\":", "\"bits\":", "\"timeline\":",
        "\"superstep\": 0", "\"total_weight\":", "\"ok\": true"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(Results, JsonDeterministicModuloWallClock) {
  auto strip_wall = [](std::string json) {
    const auto pos = json.find("\"wall_ms\":");
    const auto end = json.find('\n', pos);
    json.erase(pos, end - pos);
    return json;
  };
  const RunParams params{.k = 4, .seed = 77};
  const std::string a =
      strip_wall(run_result_to_json(run_by_name("sort", "keys:n=2000", params)));
  const std::string b =
      strip_wall(run_result_to_json(run_by_name("sort", "keys:n=2000", params)));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace km
