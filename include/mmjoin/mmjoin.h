// mmjoin: parallel pointer-based join algorithms in memory-mapped
// environments — umbrella header for the public API.
//
// Reproduction of Buhr, Goel, Nishimura & Ragde, ICDE 1996.
#ifndef MMJOIN_MMJOIN_H_
#define MMJOIN_MMJOIN_H_

#include "disk/band_measure.h"     // Fig. 1(a) measurement harness
#include "disk/disk_array.h"       // simulated multi-disk substrate
#include "exec/backend.h"          // execution-backend concept + RP layout
#include "exec/join_drivers.h"     // the six drivers, written once
#include "exec/kernels.h"          // batched prefetch dereference kernels
#include "exec/op/operators.h"     // push-based plan operators
#include "exec/op/plan.h"          // plan specs, executor, built-in plans
#include "exec/op/stages.h"        // reusable driver pass stages
#include "exec/real_backend.h"     // real-mmap backend (threads, wall time)
#include "heap/heapsort.h"         // Floyd build + heapsort (Munro)
#include "heap/merge_heap.h"       // delete-insert k-way merge heap
#include "join/drivers.h"          // the driver table: names + entries
#include "join/grace.h"            // parallel pointer-based Grace join
#include "join/hybrid_hash.h"      // pointer-based hybrid-hash (EXT-5)
#include "join/index_nl.h"         // index nested-loops, sorted leaves (EXT-8)
#include "join/join_common.h"      // parameters / results / execution core
#include "join/mpsm.h"             // massively-parallel sort-merge (EXT-9)
#include "join/nested_loops.h"     // parallel pointer-based nested loops
#include "join/oracle.h"           // reference join for verification
#include "join/sort_merge.h"       // parallel pointer-based sort-merge
#include "mmap/segment.h"          // real mmap single-level store
#include "mmap/mm_relation.h"     // relations in real mapped segments
#include "mmap/mmap_join.h"        // real parallel mmap joins
#include "mmap/segment_manager.h"  // named-segment catalogue
#include "model/join_model.h"      // analytical cost models
#include "model/urn.h"             // Johnson-Kotz urn occupancy
#include "model/wall_model.h"      // wall-clock cost model (planner)
#include "model/ylru.h"            // Mackert-Lohman LRU model
#include "opt/adaptive.h"          // shared planner state + persistence
#include "opt/calibration.h"       // machine calibration probes + EWMA
#include "opt/planner.h"           // adaptive driver/knob selection
#include "obs/json.h"              // minimal JSON parse/escape helpers
#include "obs/metrics.h"           // named counters/histograms + JSON dump
#include "obs/trace.h"             // Chrome trace-event recorder
#include "rel/generator.h"         // workload generation
#include "rel/relation.h"          // relation layout and pointers
#include "service/admission.h"     // bounded in-flight + memory budget
#include "service/catalog.h"       // resident named-relation store
#include "service/client.h"        // blocking protocol client
#include "service/protocol.h"      // mmjoind wire protocol
#include "service/query.h"         // one query end to end
#include "service/server.h"        // the mmjoind daemon core
#include "sim/machine_config.h"    // environment parameters
#include "sim/sim_env.h"           // simulated single-level store
#include "vm/page_cache.h"         // paged resident-set simulation

#endif  // MMJOIN_MMJOIN_H_
