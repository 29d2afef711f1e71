#include "exec/seq_scan_executor.h"

namespace beas {

Status SeqScanExecutor::Init() {
  it_ = TableHeap::Iterator(heap_, 0);
  return Status::OK();
}

Result<bool> SeqScanExecutor::Next(Row* out) {
  ScopedTimer timer(&millis_, ctx_->collect_timing);
  if (!it_.Valid()) return false;
  RowRef row = it_.row();
  out->assign(row.begin(), row.end());
  it_.Next();
  ++tuples_accessed_;
  ++ctx_->base_tuples_read;
  ++rows_out_;
  return true;
}

}  // namespace beas
