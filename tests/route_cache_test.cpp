// Route-cache equivalence tests: the cached span-based routes used by the
// forwarding hot path must agree exactly with the freshly-built route()
// lists, and hop_count() (now computed arithmetically) must match the
// materialised route length for every pair.
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "des/engine.h"
#include "net/cluster.h"
#include "net/network.h"

namespace {

TEST(RouteCache, SpanMatchesFreshRouteForAllPairs) {
  // 50 nodes spans 3 switches (24 ports each), so routes cover 0, 1 and 2
  // trunk hops in both directions.
  const net::ClusterParams params = net::perseus(50);
  des::Engine engine;
  net::Network network{engine, params};
  ASSERT_EQ(params.switch_count(), 3);
  for (int src = 0; src < network.nodes(); ++src) {
    for (int dst = 0; dst < network.nodes(); ++dst) {
      if (src == dst) continue;
      const std::vector<net::Link*> fresh = network.route(src, dst);
      const std::span<net::Link* const> cached = network.route_span(src, dst);
      ASSERT_EQ(fresh.size(), cached.size()) << src << "->" << dst;
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(fresh[i], cached[i]) << src << "->" << dst << " hop " << i;
      }
      // Forwarding finds a crossing by comparing the links' switch
      // indices: a route starts on the source's switch, ends on the
      // destination's, and each crossing leads to an adjacent switch.
      EXPECT_EQ(cached.front()->switch_index(), params.switch_of(src))
          << src << "->" << dst;
      EXPECT_EQ(cached.back()->switch_index(), params.switch_of(dst))
          << src << "->" << dst;
      for (std::size_t i = 1; i < cached.size(); ++i) {
        const int step =
            cached[i]->switch_index() - cached[i - 1]->switch_index();
        EXPECT_LE(std::abs(step), 1) << src << "->" << dst << " hop " << i;
      }
    }
  }
}

TEST(RouteCache, RepeatedLookupsReuseTheSameStorage) {
  des::Engine engine;
  net::Network network{engine, net::perseus(8)};
  const auto first = network.route_span(0, 5);
  const auto second = network.route_span(0, 5);
  EXPECT_EQ(first.data(), second.data())
      << "second lookup must hit the cache, not rebuild the route";
  EXPECT_EQ(first.size(), second.size());
}

TEST(RouteCache, HopCountMatchesRouteLength) {
  des::Engine engine;
  net::Network network{engine, net::perseus(50)};
  for (int src = 0; src < network.nodes(); ++src) {
    for (int dst = 0; dst < network.nodes(); ++dst) {
      if (src == dst) continue;
      EXPECT_EQ(network.hop_count(src, dst),
                static_cast<int>(network.route(src, dst).size()))
          << src << "->" << dst;
    }
  }
}

TEST(RouteCache, ArgumentValidationMatchesRoute) {
  des::Engine engine;
  net::Network network{engine, net::perseus(4)};
  EXPECT_THROW((void)network.route_span(0, 0), std::invalid_argument);
  EXPECT_THROW((void)network.hop_count(2, 2), std::invalid_argument);
  EXPECT_THROW((void)network.route_span(-1, 2), std::out_of_range);
  EXPECT_THROW((void)network.route_span(0, 4), std::out_of_range);
  EXPECT_THROW((void)network.hop_count(4, 0), std::out_of_range);
}

TEST(RouteCache, ParamsSurviveByValueConstruction) {
  des::Engine engine;
  net::ClusterParams params = net::perseus(6);
  const des::Duration latency = params.switch_latency;
  net::Network network{engine, params};  // copies; ctor moves internally
  EXPECT_EQ(network.params().nodes, 6);
  EXPECT_EQ(network.params().switch_latency, latency);
  EXPECT_EQ(params.nodes, 6) << "caller's copy must be untouched";
}

}  // namespace
