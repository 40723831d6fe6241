// MachineConfig: every measured parameter of the paper's model in one
// struct. The defaults (SequentSymmetry1996()) are calibrated so that the
// derived machine-dependent functions have the magnitudes of Fig. 1:
// dttr/dttw per 4 KiB block in the 6..22 ms range, mapping setup costs in
// seconds for multi-thousand-block maps, and CPU primitive costs of a
// mid-1990s shared-memory multiprocessor.
#ifndef MMJOIN_SIM_MACHINE_CONFIG_H_
#define MMJOIN_SIM_MACHINE_CONFIG_H_

#include <cstdint>

#include "disk/disk_model.h"
#include "heap/heap_cost.h"

namespace mmjoin::sim {

/// All environment parameters of section 3 of the paper.
struct MachineConfig {
  // ---- layout -----------------------------------------------------------
  uint32_t page_size = 4096;  ///< B: virtual-memory block size, bytes
  uint32_t num_disks = 4;     ///< D: parallel I/O paths

  /// Geometry/timing of each simulated drive.
  disk::DiskGeometry disk;

  // ---- CPU primitives (milliseconds) ------------------------------------
  double cs_ms = 0.25;        ///< CS: context switch between processes
  double mt_pp_ms = 0.00045;  ///< MTpp: private->private copy, per byte
  double mt_ps_ms = 0.00060;  ///< MTps: private->shared copy, per byte
  double mt_sp_ms = 0.00060;  ///< MTsp: shared->private copy, per byte
  double mt_ss_ms = 0.00075;  ///< MTss: shared->shared copy, per byte
  double map_ms = 0.004;      ///< map: join attribute -> S partition
  double hash_ms = 0.006;     ///< hash: one hash computation
  double compare_ms = 0.004;  ///< compare: two heap elements
  double swap_ms = 0.005;     ///< swap: two heap elements
  double transfer_ms = 0.004; ///< transfer: element into/out of a heap

  // ---- mapping setup (milliseconds; linear in map size, Fig. 1b) --------
  double new_map_base_ms = 40.0;
  double new_map_per_block_ms = 0.90;
  double open_map_base_ms = 25.0;
  double open_map_per_block_ms = 0.55;
  double delete_map_base_ms = 15.0;
  double delete_map_per_block_ms = 0.28;

  /// newMap(P): create a mapping of P blocks.
  double NewMapMs(uint64_t blocks) const {
    return new_map_base_ms + new_map_per_block_ms * double(blocks);
  }
  /// openMap(P): attach an existing mapping of P blocks.
  double OpenMapMs(uint64_t blocks) const {
    return open_map_base_ms + open_map_per_block_ms * double(blocks);
  }
  /// deleteMap(P): destroy a mapping of P blocks and its data.
  double DeleteMapMs(uint64_t blocks) const {
    return delete_map_base_ms + delete_map_per_block_ms * double(blocks);
  }

  /// CPU time of counted heap primitives (the §6.3 sort/merge terms).
  double HeapCostMs(const HeapCost& cost) const {
    return static_cast<double>(cost.compares) * compare_ms +
           static_cast<double>(cost.swaps) * swap_ms +
           static_cast<double>(cost.transfers) * transfer_ms;
  }

  /// The configuration used throughout the paper's validation (section 8):
  /// 4 disks, 4 KiB blocks, Fujitsu-class drives.
  static MachineConfig SequentSymmetry1996();
};

}  // namespace mmjoin::sim

#endif  // MMJOIN_SIM_MACHINE_CONFIG_H_
