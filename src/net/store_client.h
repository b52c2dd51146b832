// StoreClient: the transport-facing interface RemoteBackend programs against.
// Two implementations exist: the blocking `Client` (one socket, one
// outstanding request, no push handling) and `AsyncClient` (a reader thread
// demuxing responses and unsolicited kPushChunk frames into a ReadAheadCache,
// so remote AAR reads can be served from client memory). Both keep the same
// calling contract: one caller thread; buffered writes sent on batch-full /
// Flush(), or carried by the next read in the same frame; writes that got no
// answer kept pending, never dropped; at-least-once retry semantics (see
// client.h).
#ifndef SRC_NET_STORE_CLIENT_H_
#define SRC_NET_STORE_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/net/protocol.h"

namespace flowkv {
namespace net {

class StoreClient {
 public:
  virtual ~StoreClient() = default;

  // Round-trip no-op, for tests and liveness checks.
  virtual Status Ping() = 0;

  // Opens (or re-attaches to) the server-side store for `ns` and returns a
  // client handle plus the server-classified pattern.
  virtual Status OpenStore(const std::string& ns, const OperatorStateSpec& spec,
                           uint64_t* handle, StorePattern* pattern) = 0;

  // ----- buffered writes (sent on batch-full / Flush() / with any read) -----
  virtual Status AppendAligned(uint64_t handle, const Slice& key, const Slice& value,
                               const Window& w) = 0;
  virtual Status AppendUnaligned(uint64_t handle, const Slice& key, const Slice& value,
                                 const Window& w, int64_t timestamp) = 0;
  virtual Status MergeWindows(uint64_t handle, const Slice& key,
                              const std::vector<Window>& sources, const Window& dst) = 0;
  virtual Status RmwPut(uint64_t handle, const Slice& key, const Window& w,
                        const Slice& accumulator) = 0;
  virtual Status RmwRemove(uint64_t handle, const Slice& key, const Window& w) = 0;

  // Sends any buffered writes and waits for their acks.
  virtual Status Flush() = 0;

  // ----- reads: carry the pending writes in the same frame, writes first;
  // a failed write surfaces as the read's status -----
  virtual Status GetWindowChunk(uint64_t handle, const Window& w,
                                std::vector<WindowChunkEntry>* chunk, bool* done) = 0;
  virtual Status GetUnaligned(uint64_t handle, const Slice& key, const Window& w,
                              std::vector<std::string>* values) = 0;
  virtual Status RmwGet(uint64_t handle, const Slice& key, const Window& w,
                        std::string* accumulator) = 0;

  // ----- store management (Checkpoint / GatherStats carry the pending
  // writes like reads; Stats flushes them first) -----
  virtual Status Checkpoint(uint64_t handle, const std::string& server_dir) = 0;
  virtual Status GatherStats(uint64_t handle,
                             std::vector<std::pair<std::string, int64_t>>* fields) = 0;
  virtual Status Stats(std::string* json) = 0;
};

}  // namespace net
}  // namespace flowkv

#endif  // SRC_NET_STORE_CLIENT_H_
