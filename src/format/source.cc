#include "format/source.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace lambada::format {

// ---------------------------------------------------------------------------
// InMemorySource
// ---------------------------------------------------------------------------

sim::Async<Result<BufferPtr>> InMemorySource::ReadAt(int64_t offset,
                                                     int64_t length) {
  if (offset < 0 || length < 0 ||
      offset + length > static_cast<int64_t>(data_->size())) {
    co_return Status::IOError("read out of bounds");
  }
  co_return data_->Slice(static_cast<size_t>(offset),
                         static_cast<size_t>(length));
}

sim::Async<Result<RandomAccessSource::Tail>> InMemorySource::ReadTail(
    int64_t length) {
  int64_t size = static_cast<int64_t>(data_->size());
  int64_t n = std::min(size, std::max<int64_t>(0, length));
  co_return Tail{data_->Slice(static_cast<size_t>(size - n),
                              static_cast<size_t>(n)),
                 size};
}

// ---------------------------------------------------------------------------
// S3Source
// ---------------------------------------------------------------------------

sim::Async<Result<BufferPtr>> S3Source::ReadAt(int64_t offset,
                                               int64_t length) {
  if (length == 0) co_return Buffer::FromVector({});
  if (options_.chunk_bytes <= 0 || length <= options_.chunk_bytes) {
    ++request_count_;
    // Deliberate if/else rather than a conditional expression: co_await
    // inside ?: destroys the awaited temporary before resumption on GCC.
    Result<BufferPtr> r = Status::Internal("not fetched");
    if (options_.share != nullptr) {
      r = co_await options_.share->Get(&client_, bucket_, key_, offset,
                                       length);
    } else {
      r = co_await client_.Get(bucket_, key_, offset, length);
    }
    if (!r.ok()) co_return r.status();
    if (static_cast<int64_t>((*r)->size()) != length) {
      co_return Status::IOError("short read");
    }
    co_return *std::move(r);
  }
  // Split the read into chunk_bytes ranges, downloaded with a bounded
  // number of concurrent connections (the classical technique of "hiding
  // the latency of one or more requests with the processing of another").
  struct Piece {
    int64_t offset;
    int64_t length;
    Result<BufferPtr> result = Status::Internal("not fetched");
  };
  std::vector<Piece> pieces;
  for (int64_t at = 0; at < length; at += options_.chunk_bytes) {
    pieces.push_back(
        Piece{offset + at, std::min(options_.chunk_bytes, length - at)});
  }
  auto* sim = client_.store()->simulator();
  sim::Semaphore gate(sim, std::max(1, options_.connections));
  std::vector<sim::Async<void>> fetches;
  fetches.reserve(pieces.size());
  for (auto& piece : pieces) {
    fetches.push_back(
        [](S3Source* self, sim::Semaphore* g, Piece* p) -> sim::Async<void> {
          co_await g->Acquire();
          ++self->request_count_;
          if (self->options_.share != nullptr) {
            p->result = co_await self->options_.share->Get(
                &self->client_, self->bucket_, self->key_, p->offset,
                p->length);
          } else {
            p->result =
                co_await self->client_.Get(self->bucket_, self->key_,
                                           p->offset, p->length);
          }
          g->Release();
        }(this, &gate, &piece));
  }
  co_await sim::WhenAllVoid(sim, std::move(fetches));
  std::vector<uint8_t> out(static_cast<size_t>(length));
  for (const auto& piece : pieces) {
    if (!piece.result.ok()) co_return piece.result.status();
    const BufferPtr& buf = *piece.result;
    if (static_cast<int64_t>(buf->size()) != piece.length) {
      co_return Status::IOError("short chunk read");
    }
    std::memcpy(out.data() + (piece.offset - offset), buf->data(),
                buf->size());
  }
  co_return Buffer::FromVector(std::move(out));
}

sim::Async<Result<RandomAccessSource::Tail>> S3Source::ReadTail(
    int64_t length) {
  if (options_.meta != nullptr) {
    auto cached = co_await options_.meta->GetFooter(client_.ctx(), bucket_,
                                                    key_, length);
    if (cached.ok()) {
      co_return Tail{cached->data, cached->object_size};
    }
  }
  ++request_count_;
  auto r = co_await client_.GetTail(bucket_, key_, length);
  if (!r.ok()) co_return r.status();
  tail_bytes_ += static_cast<int64_t>(r->data->size());
  if (options_.meta != nullptr) {
    // Best-effort fill; a failed write just means the next query misses.
    co_await options_.meta->PutFooter(client_.ctx(), bucket_, key_, length,
                                      *r);
  }
  co_return Tail{r->data, r->object_size};
}

}  // namespace lambada::format
