#ifndef PARDB_CORE_TRACE_EXPORT_H_
#define PARDB_CORE_TRACE_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.h"

namespace pardb::core {

// One engine event as a single-line JSON object:
//   {"kind":"block","step":12,"txn":2,"entity":5,"pc":3,"target":0,"cost":0}
// Invalid ids (entity on spawn/commit events) serialize as null.
std::string TraceEventToJsonLine(const TraceEvent& event);

// The event stream of one engine (one shard) destined for the Chrome
// trace: `pid` becomes the trace process id, `name` its process_name.
struct ShardTrace {
  std::uint64_t pid = 0;
  std::string name;
  std::vector<TraceEvent> events;  // in emission order
};

// One slice of a cross-shard (global) transaction: the shard-local
// transaction `tid` running on process `pid` belongs to the global
// transaction with sequence number `global`. The sharded driver fills
// these from the coordinator's slice index so the Chrome trace can draw
// flow arrows linking a split transaction's slices across shard tracks.
struct GlobalSlice {
  std::uint64_t global = 0;  // global sequence number (the flow id)
  std::uint64_t pid = 0;     // home shard of the slice
  std::uint64_t tid = 0;     // local txn id on that shard
};

// Renders engine events as a Chrome trace_event JSON document (loadable in
// Perfetto / about://tracing). Timestamps are engine steps expressed as
// microseconds; pid = shard, tid = transaction. Mapping:
//  * kSpawn/kCommit        -> B/E duration slice spanning the txn lifetime
//  * kBlocked              -> X slice "wait E<n>" lasting until the next
//                             grant or rollback-family event of that txn
//  * kDeadlock             -> instant "deadlock E<n>"
//  * kRollback/kWound/
//    kDeath/kTimeout       -> instant with target/cost args
//  * GlobalSlice groups    -> ph "s"/"t"/"f" flow events ("global G<seq>")
//                             binding the slices of one global transaction
//                             — and its 2PC prepare/resolve points — into
//                             one arrow chain across shard tracks, ordered
//                             by each slice's spawn step
// Slices left open at the end of a shard's stream are closed at its last
// step so partial runs still load.
std::string ChromeTraceJson(const std::vector<ShardTrace>& shards,
                            const std::vector<GlobalSlice>& flows = {});

// Convenience for a single-engine run.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events,
                            const std::string& process_name = "pardb");

// Writes `ChromeTraceJson(shards, flows)` to `path`. Returns false on I/O
// failure.
bool WriteChromeTraceFile(const std::string& path,
                          const std::vector<ShardTrace>& shards,
                          const std::vector<GlobalSlice>& flows = {});

}  // namespace pardb::core

#endif  // PARDB_CORE_TRACE_EXPORT_H_
