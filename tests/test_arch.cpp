// Architecture-library facts: qubit/coupler counts of the paper's four
// platforms, structural sanity of the parametric families.
#include <gtest/gtest.h>

#include "arch/architectures.hpp"
#include "graph/connectivity.hpp"

namespace qubikos {
namespace {

TEST(arch, aspen4_shape) {
    const auto a = arch::aspen4();
    EXPECT_EQ(a.num_qubits(), 16);
    EXPECT_EQ(a.num_couplers(), 18);  // two octagons + 2 bridges
    EXPECT_TRUE(is_connected(a.coupling));
    EXPECT_EQ(a.coupling.max_degree(), 3);
    // Bridge endpoints have degree 3, everything else 2.
    EXPECT_EQ(a.coupling.count_degree_at_least(3), 4);
}

TEST(arch, sycamore54_shape) {
    const auto a = arch::sycamore54();
    EXPECT_EQ(a.num_qubits(), 54);
    EXPECT_EQ(a.num_couplers(), 88);  // published coupler count
    EXPECT_TRUE(is_connected(a.coupling));
    EXPECT_EQ(a.coupling.max_degree(), 4);  // diagonal square lattice
}

TEST(arch, rochester53_shape) {
    const auto a = arch::rochester53();
    EXPECT_EQ(a.num_qubits(), 53);
    EXPECT_EQ(a.num_couplers(), 58);  // published coupling map
    EXPECT_TRUE(is_connected(a.coupling));
    EXPECT_EQ(a.coupling.max_degree(), 3);  // heavy-hex style sparsity
}

TEST(arch, eagle127_shape) {
    const auto a = arch::eagle127();
    EXPECT_EQ(a.num_qubits(), 127);
    EXPECT_EQ(a.num_couplers(), 144);  // ibm_washington heavy-hex
    EXPECT_TRUE(is_connected(a.coupling));
    EXPECT_EQ(a.coupling.max_degree(), 3);
    // Heavy-hex degree profile: no vertex above 3; connector attachment
    // points in chain interiors are the only degree-3 vertices (the 12
    // attachments landing on chain ends stay at degree 2).
    EXPECT_EQ(a.coupling.count_degree_at_least(3), 36);
}

TEST(arch, paper_platform_ordering) {
    const auto platforms = arch::paper_platforms();
    ASSERT_EQ(platforms.size(), 4u);
    EXPECT_EQ(platforms[0].name, "aspen4");
    EXPECT_EQ(platforms[1].name, "sycamore54");
    EXPECT_EQ(platforms[2].name, "rochester53");
    EXPECT_EQ(platforms[3].name, "eagle127");
}

TEST(arch, line_ring_grid) {
    EXPECT_EQ(arch::line(5).num_couplers(), 4);
    EXPECT_EQ(arch::ring(5).num_couplers(), 5);
    const auto g = arch::grid(3, 4);
    EXPECT_EQ(g.num_qubits(), 12);
    EXPECT_EQ(g.num_couplers(), 3 * 3 + 2 * 4);  // 17
    EXPECT_THROW(arch::line(1), std::invalid_argument);
    EXPECT_THROW(arch::ring(2), std::invalid_argument);
    EXPECT_THROW(arch::grid(0, 3), std::invalid_argument);
}

TEST(arch, heavy_hex_generic) {
    const auto h = arch::heavy_hex(3, 9);
    EXPECT_TRUE(is_connected(h.coupling));
    EXPECT_EQ(h.coupling.max_degree(), 3);
    // 3 chains of 9 plus connectors between the 2 gaps.
    EXPECT_GT(h.num_qubits(), 27);
    EXPECT_THROW(arch::heavy_hex(1, 9), std::invalid_argument);
    EXPECT_THROW(arch::heavy_hex(3, 4), std::invalid_argument);
}

TEST(arch, by_name_round_trip) {
    for (const auto& name : {"aspen4", "sycamore54", "rochester53", "eagle127"}) {
        EXPECT_EQ(arch::by_name(name).name, name);
    }
    EXPECT_EQ(arch::by_name("line7").num_qubits(), 7);
    EXPECT_EQ(arch::by_name("ring6").num_couplers(), 6);
    EXPECT_EQ(arch::by_name("grid3x3").num_qubits(), 9);
    EXPECT_THROW(arch::by_name("hexagon99"), std::invalid_argument);
    // Sizes parse strictly: the whole field, no overflow, and only the
    // canonical spelling (by_name(s).name == s).
    for (const auto& bad : {"line99999999999", "line5abc", "grid3x3junk", "grid50000x50000",
                            "line07", "line", "line 5", "line-5", "ring+6", "grid3", "gridx3",
                            "grid3x", "grid3x3x3"}) {
        EXPECT_THROW(arch::by_name(bad), std::invalid_argument) << bad;
    }
    for (const auto& good : {"line2", "ring3", "grid1x1", "grid12x3", "tokyo20", "guadalupe16"}) {
        EXPECT_EQ(arch::by_name(good).name, good);
    }
    EXPECT_FALSE(arch::known_names().empty());
}

}  // namespace
}  // namespace qubikos
