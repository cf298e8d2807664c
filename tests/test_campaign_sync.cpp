// Segmented-store and multi-machine sync tests: one record file per
// writer, stores from builds that rotated segments (head manifests, the
// torn-tail-only-on-newest rule), grow-only sync (idempotent), v1
// interop — and the distributed guarantee: stores collected over
// `campaign sync` merge into a report that is byte-identical to a
// single-process run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/merge.hpp"
#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "campaign/sync.hpp"
#include "campaign/worker.hpp"

namespace qubikos {
namespace {

campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.name = "sync_test";
    spec.sabre_trials = 4;
    core::suite_spec suite;
    suite.arch_name = "grid3x3";
    suite.swap_counts = {1, 2};
    suite.circuits_per_count = 2;
    suite.total_two_qubit_gates = 25;
    suite.base_seed = 5;
    spec.suites.push_back(suite);
    return spec;
}

/// Fresh per-test scratch directory (removed up front, not after, so a
/// failing test leaves its store behind for inspection).
std::string scratch_dir(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "qubikos_sync_tests" / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

std::vector<campaign::store_file> segments_of(const std::string& dir, int writer) {
    std::vector<campaign::store_file> out;
    for (const auto& file : campaign::scan_store_files(dir)) {
        if (file.writer == writer) out.push_back(file);
    }
    return out;
}

/// Runs one shard with small batches, so even a mini-campaign flushes
/// several times.
campaign::worker_options shard_options(int shard, int num_shards) {
    campaign::worker_options options;
    options.shard = shard;
    options.num_shards = num_shards;
    options.batch_size = 2;
    return options;
}

void write_meta(const std::string& dir, const campaign::campaign_spec& spec) {
    json::object meta;
    meta["schema"] = "qubikos.campaign_store.v1";
    meta["name"] = spec.name;
    meta["fingerprint"] = campaign::spec_fingerprint(spec);
    meta["spec"] = campaign::spec_to_json(spec);
    std::ofstream(dir + "/meta.json") << json::value(std::move(meta)).dump(2) << "\n";
}

json::value sealed_entry(const std::string& file, const std::string& bytes) {
    json::object entry;
    entry["file"] = file;
    entry["bytes"] = bytes.size();
    entry["fingerprint"] = campaign::content_fingerprint(bytes);
    return json::value(std::move(entry));
}

/// Hand-builds what a build that rotated segments left behind for writer
/// 0: runs-0-000000.jsonl (units 0 and 1), sealed in head-0.json with its
/// byte length and content fingerprint, then runs-0-000001.jsonl (unit
/// 2). With `open_seq` 1 the second segment is the open one and ends in a
/// torn tail. With `open_seq` 2 it is sealed too: the writer crashed
/// after sealing it and before creating seq 2.
void write_rotated_store(const std::string& dir, const campaign::campaign_plan& plan,
                         long open_seq) {
    write_meta(dir, plan.spec);
    const campaign::unit_executor executor(plan.spec);
    const auto line = [&](std::size_t i) {
        return campaign::run_to_json(executor.execute(plan.units[i])).dump() + "\n";
    };
    const std::string seq0 = line(0) + line(1);
    const std::string seq1 = line(2);
    const std::string name0 = campaign::segment_file_name(0, 0);
    const std::string name1 = campaign::segment_file_name(0, 1);
    std::ofstream(dir + "/" + name0, std::ios::binary) << seq0;
    json::array sealed;
    sealed.push_back(sealed_entry(name0, seq0));
    if (open_seq == 2) {
        std::ofstream(dir + "/" + name1, std::ios::binary) << seq1;
        sealed.push_back(sealed_entry(name1, seq1));
    } else {
        std::ofstream(dir + "/" + name1, std::ios::binary) << seq1 << "{\"unit_id\": \"torn-by-cra";
    }
    json::object head;
    head["schema"] = "qubikos.campaign_head.v1";
    head["writer"] = 0;
    head["open_seq"] = static_cast<std::int64_t>(open_seq);
    head["sealed"] = std::move(sealed);
    std::ofstream(dir + "/head-0.json") << json::value(std::move(head)).dump(2) << "\n";
}

std::string file_bytes(const std::string& dir, const std::string& name) {
    return campaign::read_file_bytes(std::filesystem::path(dir) / name);
}

TEST(campaign_segments, fresh_store_keeps_one_file_per_writer_and_no_head) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("one_file");

    // Two writers share the directory; each flushes several batches.
    (void)campaign::run_campaign_shard(plan, dir, shard_options(0, 2));
    (void)campaign::run_campaign_shard(plan, dir, shard_options(1, 2));

    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"meta.json", campaign::segment_file_name(0, 0),
                                               campaign::segment_file_name(1, 0)}));
    EXPECT_EQ(campaign::result_store::load_runs(dir).size(), plan.units.size());
}

TEST(campaign_segments, rotated_store_loads_and_resumes_into_its_open_segment) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("rotated");
    write_rotated_store(dir, plan, 1);
    const std::string head = file_bytes(dir, "head-0.json");
    const std::string seq0 = file_bytes(dir, campaign::segment_file_name(0, 0));

    // Every record loads across the segment boundary (the torn tail of
    // the open segment is dropped).
    EXPECT_EQ(campaign::result_store::load_runs(dir).size(), 3u);

    // A resume appends to seq 1 and touches neither seq 0 nor the head.
    auto options = shard_options(0, 1);
    options.max_units = 2;
    const auto report = campaign::run_campaign_shard(plan, dir, options);
    EXPECT_EQ(report.skipped, 3u);
    EXPECT_EQ(report.executed, 2u);
    const auto segments = segments_of(dir, 0);
    ASSERT_EQ(segments.size(), 2u);
    EXPECT_EQ(segments.back().seq, 1);
    EXPECT_EQ(file_bytes(dir, campaign::segment_file_name(0, 0)), seq0);
    EXPECT_EQ(file_bytes(dir, "head-0.json"), head);
    EXPECT_EQ(campaign::result_store::load_runs(dir).size(), 5u);

    // Finishing the run still lands in seq 1 and loses nothing.
    (void)campaign::run_campaign_shard(plan, dir, shard_options(0, 1));
    EXPECT_EQ(segments_of(dir, 0).size(), 2u);
    EXPECT_EQ(file_bytes(dir, "head-0.json"), head);
    EXPECT_TRUE(campaign::merge_stores(plan, {dir}).complete());
}

TEST(campaign_segments, head_open_seq_past_newest_segment_opens_that_seq) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("open_seq");
    write_rotated_store(dir, plan, 2);
    const std::string head = file_bytes(dir, "head-0.json");
    const std::string seq1 = file_bytes(dir, campaign::segment_file_name(0, 1));

    // Seq 1 is sealed, so the writer must not append to it: it opens the
    // fresh seq 2 the head names.
    auto options = shard_options(0, 1);
    options.max_units = 1;
    const auto report = campaign::run_campaign_shard(plan, dir, options);
    EXPECT_EQ(report.executed, 1u);
    const auto segments = segments_of(dir, 0);
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_EQ(segments.back().seq, 2);
    EXPECT_EQ(file_bytes(dir, campaign::segment_file_name(0, 1)), seq1);
    EXPECT_EQ(file_bytes(dir, "head-0.json"), head);
    EXPECT_EQ(campaign::result_store::load_runs(dir).size(), 4u);
}

TEST(campaign_segments, torn_tail_tolerated_only_on_newest_segment) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("torn");
    write_rotated_store(dir, plan, 1);

    // Torn bytes on the newest (open) segment are the crash signature:
    // tolerated.
    EXPECT_EQ(campaign::result_store::load_runs(dir).size(), 3u);

    // The same bytes on an older segment are corruption: nothing
    // legitimate appends there, so nothing legitimate can have torn it.
    {
        std::ofstream tail(dir + "/" + campaign::segment_file_name(0, 0), std::ios::app);
        tail << "{\"unit_id\": \"torn-by-cra";
    }
    EXPECT_THROW((void)campaign::result_store::load_runs(dir), std::runtime_error);
    EXPECT_THROW({ const campaign::result_store store(dir, spec); }, std::runtime_error);
    // The rule holds on its own, without the head's fingerprint.
    std::filesystem::remove(dir + "/head-0.json");
    EXPECT_THROW((void)campaign::result_store::load_runs(dir), std::runtime_error);
}

TEST(campaign_segments, sealed_segment_must_match_its_head_manifest) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    const std::string dir = scratch_dir("tamper");
    write_rotated_store(dir, plan, 1);

    // Flip one byte inside the sealed segment, keeping it parseable JSON:
    // the head manifest's content fingerprint still catches it.
    const std::string path = dir + "/" + campaign::segment_file_name(0, 0);
    std::string content = file_bytes(dir, campaign::segment_file_name(0, 0));
    const std::size_t digit = content.find("\"seconds\":");
    ASSERT_NE(digit, std::string::npos);
    content[digit + 10] = content[digit + 10] == '1' ? '2' : '1';
    std::ofstream(path, std::ios::binary | std::ios::trunc) << content;
    EXPECT_THROW((void)campaign::result_store::load_runs(dir), std::runtime_error);
    EXPECT_THROW({ const campaign::result_store store(dir, spec); }, std::runtime_error);
}

TEST(campaign_sync, two_machine_campaign_merges_byte_identical_to_single_process) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);

    // Single-process reference.
    const std::string single = scratch_dir("sync_single");
    (void)campaign::run_campaign_shard(plan, single, {});
    const std::string reference =
        campaign::render_report(plan, campaign::merge_stores(plan, {single}));

    // "Machine" A runs shard 0/2 to completion; "machine" B runs shard
    // 1/2 and is interrupted mid-run with a torn append.
    const std::string machine_a = scratch_dir("sync_a");
    const std::string machine_b = scratch_dir("sync_b");
    (void)campaign::run_campaign_shard(plan, machine_a, shard_options(0, 2));
    auto interrupted = shard_options(1, 2);
    interrupted.max_units = 3;
    (void)campaign::run_campaign_shard(plan, machine_b, interrupted);
    {
        const auto segments = segments_of(machine_b, 1);
        ASSERT_FALSE(segments.empty());
        std::ofstream tail(machine_b + "/" + segments.back().name, std::ios::app);
        tail << "{\"unit_id\": \"torn-by-cra";
    }

    // First collection: the torn tail rides along harmlessly (it lands
    // on the newest segment of writer 1, where reads tolerate it).
    const std::string collected = scratch_dir("sync_collected");
    const auto first = campaign::sync_stores(collected, {machine_a, machine_b});
    EXPECT_GT(first.copied, 0u);

    // Machine B resumes and finishes; the next sync copies only the
    // grown segment.
    (void)campaign::run_campaign_shard(plan, machine_b, shard_options(1, 2));
    const auto second = campaign::sync_stores(collected, {machine_a, machine_b});
    EXPECT_FALSE(second.noop());  // B's segment grew
    EXPECT_GT(second.unchanged, 0u);  // A's did not

    // The collected store merges byte-identical to the single-process
    // reference — the acceptance guarantee of the distributed workflow.
    const auto merged = campaign::merge_stores(plan, {collected});
    ASSERT_TRUE(merged.complete());
    EXPECT_EQ(campaign::render_report(plan, merged), reference);

    // And a merged store written from it behaves like any other store.
    const std::string out = scratch_dir("sync_out");
    campaign::write_merged_store(merged, spec, out);
    EXPECT_EQ(campaign::render_report(plan, campaign::merge_stores(plan, {out})), reference);
}

TEST(campaign_sync, resync_is_a_noop) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);

    const std::string src = scratch_dir("noop_src");
    (void)campaign::run_campaign_shard(plan, src, shard_options(0, 1));
    const std::string dest = scratch_dir("noop_dest");

    const auto first = campaign::sync_stores(dest, {src});
    EXPECT_FALSE(first.noop());
    const auto again = campaign::sync_stores(dest, {src});
    EXPECT_TRUE(again.noop());
    EXPECT_EQ(again.copied, 0u);
    EXPECT_EQ(again.grown, 0u);
    EXPECT_EQ(again.heads, 0u);
    EXPECT_GT(again.unchanged, 0u);

    // Syncing back into the source is also a no-op (nothing is newer).
    const auto reverse = campaign::sync_stores(src, {dest});
    EXPECT_TRUE(reverse.noop());
}

TEST(campaign_sync, divergent_same_name_segments_are_a_hard_error) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);

    // Two "machines" both running shard 0 produce same-named segments
    // with identical content (determinism) — that syncs fine. Make them
    // genuinely diverge by corrupting one byte of the copy.
    const std::string src_a = scratch_dir("diverge_a");
    const std::string src_b = scratch_dir("diverge_b");
    campaign::worker_options options;
    options.max_units = 2;
    (void)campaign::run_campaign_shard(plan, src_a, options);
    (void)campaign::run_campaign_shard(plan, src_b, options);

    const auto segments = segments_of(src_b, 0);
    ASSERT_FALSE(segments.empty());
    const std::string path = src_b + "/" + segments.front().name;
    std::string content;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        content = buffer.str();
    }
    const std::size_t digit = content.find("\"measured_swaps\":");
    ASSERT_NE(digit, std::string::npos);
    content[digit + 17] = content[digit + 17] == '1' ? '2' : '1';
    std::ofstream(path, std::ios::binary | std::ios::trunc) << content;

    const std::string dest = scratch_dir("diverge_dest");
    (void)campaign::sync_stores(dest, {src_a});
    EXPECT_THROW((void)campaign::sync_stores(dest, {src_b}), std::runtime_error);
}

TEST(campaign_sync, rejects_stores_of_a_different_spec) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);
    auto other = spec;
    other.sabre_trials = 99;

    const std::string src = scratch_dir("fp_src");
    const std::string off = scratch_dir("fp_off");
    campaign::worker_options options;
    options.max_units = 1;
    (void)campaign::run_campaign_shard(plan, src, options);
    (void)campaign::run_campaign_shard(campaign::expand_plan(other), off, options);

    const std::string dest = scratch_dir("fp_dest");
    EXPECT_THROW((void)campaign::sync_stores(dest, {src, off}), std::runtime_error);
    (void)campaign::sync_stores(dest, {src});
    EXPECT_THROW((void)campaign::sync_stores(dest, {off}), std::runtime_error);
    // A source that is not a store at all is also an error.
    EXPECT_THROW((void)campaign::sync_stores(dest, {scratch_dir("fp_not_a_store")}),
                 std::exception);
}

TEST(campaign_sync, legacy_v1_source_participates) {
    const auto spec = small_spec();
    const auto plan = campaign::expand_plan(spec);

    // A hand-built v1 store (single runs.jsonl) next to a segmented one.
    const campaign::unit_executor executor(spec);
    const std::string v1 = scratch_dir("legacy_v1");
    write_meta(v1, spec);
    std::ofstream(v1 + "/runs.jsonl")
        << campaign::run_to_json(executor.execute(plan.units[0])).dump() << "\n";
    const std::string seg = scratch_dir("legacy_seg");
    (void)campaign::run_campaign_shard(plan, seg, {});

    const std::string dest = scratch_dir("legacy_dest");
    const auto report = campaign::sync_stores(dest, {v1, seg});
    EXPECT_GT(report.copied, 0u);
    const auto merged = campaign::merge_stores(plan, {dest});
    EXPECT_TRUE(merged.complete());
    EXPECT_GT(merged.duplicates, 0u);  // unit 0 arrived from both layouts

    // A second, different v1 store collides on the runs.jsonl name.
    const std::string v1b = scratch_dir("legacy_v1b");
    write_meta(v1b, spec);
    std::ofstream(v1b + "/runs.jsonl")
        << campaign::run_to_json(executor.execute(plan.units[1])).dump() << "\n";
    EXPECT_THROW((void)campaign::sync_stores(dest, {v1b}), std::runtime_error);
}

}  // namespace
}  // namespace qubikos
