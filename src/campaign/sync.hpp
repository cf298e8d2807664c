// Multi-machine store sync: collect per-writer result stores into one.
//
// The campaign engine's distributed workflow is share-nothing: every
// machine runs its own disjoint shard(s) into its own store directory.
// `sync_stores` collects those directories into a destination store by
// copying record files, and only the ones it is missing. Each file is
// byte-compared with the destination's copy over its *durable*
// (record-valid) prefix: an identical file is skipped (re-sync is a
// no-op); a *grown* file (the source writer appended since the last
// sync, the only legal way a file's records change, since every file is
// append-only) is prefix-verified and replaced; and durable prefixes
// that disagree are a hard error. Append-only files that diverge mean
// two writers shared a (writer, seq) name, a corrupt disk, or mixed
// experiments — never something to paper over.
//
// Pulling from a *live* writer is safe: a file copied mid-append can
// tear at most its final line, lands as the newest file of that writer
// in the destination (exactly where the read path tolerates a torn
// tail), and is healed by a later sync once the writer has resumed
// (truncating the torn line) and appended past it — which is why the
// comparison covers only the record-valid prefix, not raw bytes.
//
// Stores from earlier builds may carry head-<writer>.json manifests
// naming sealed segments. Sync copies them too, snapshotted before
// their segments, so a head in the destination never claims more
// sealed bytes than the files beside it hold; a head that has not
// advanced past the destination's copy is skipped.
//
// Copies are atomic (temp + fsync + rename into the destination), so a
// killed sync leaves the destination a valid store — at worst missing
// files it would have copied next.
//
// Legacy v1 stores participate as sources: their single runs.jsonl is
// copied under the same grow-or-identical rule. Two distinct v1 sources
// collide on that name — merge those with `campaign merge` instead.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace qubikos::campaign {

struct sync_options {
    /// Per-file action lines on stdout.
    bool verbose = false;
};

struct sync_report {
    /// Record files the destination lacked entirely.
    std::size_t copied = 0;
    /// Existing record files replaced by a longer, prefix-identical
    /// version.
    std::size_t grown = 0;
    /// Record files already up to date (or newer in the destination).
    /// Head manifests never count here, so the three record counters sum
    /// to the record files examined.
    std::size_t unchanged = 0;
    /// Head manifests written or advanced (unadvanced ones are skipped
    /// without being counted anywhere).
    std::size_t heads = 0;

    /// True when the pass moved no record bytes (the idempotence check).
    [[nodiscard]] bool noop() const { return copied == 0 && grown == 0; }
};

/// Syncs every source store into `destination` (created if absent, spec
/// snapshot copied from the first source). All stores — sources and a
/// pre-existing destination — must carry the same spec fingerprint.
/// Throws on fingerprint mismatch, divergent same-name files, or a
/// source that is not a store.
sync_report sync_stores(const std::string& destination,
                        const std::vector<std::string>& sources,
                        const sync_options& options = {});

}  // namespace qubikos::campaign
