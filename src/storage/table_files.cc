#include "storage/table_files.h"

#include <algorithm>
#include <filesystem>

#include "common/bytes.h"
#include "common/file_util.h"
#include "common/macros.h"
#include "storage/catalog.h"

namespace rodb {

std::string TablePaths::MetaFile(const std::string& dir,
                                 const std::string& name) {
  return dir + "/" + name + ".meta";
}

std::string TablePaths::DictFile(const std::string& dir,
                                 const std::string& name) {
  return dir + "/" + name + ".dict";
}

std::string TablePaths::RowFile(const std::string& dir,
                                const std::string& name) {
  return dir + "/" + name + ".row";
}

std::string TablePaths::PaxFile(const std::string& dir,
                                const std::string& name) {
  return dir + "/" + name + ".pax";
}

std::string TablePaths::ColumnFile(const std::string& dir,
                                   const std::string& name,
                                   size_t attr_index) {
  return dir + "/" + name + ".col" + std::to_string(attr_index);
}

void RemoveTableFiles(const std::string& dir, const std::string& name,
                      DurableEnv* env) {
  if (env == nullptr) env = DurableEnv::Default();
  env->Remove(TablePaths::MetaFile(dir, name));
  env->Remove(TablePaths::MetaFile(dir, name) + ".tmp");
  env->Remove(TablePaths::DictFile(dir, name));
  env->Remove(SynopsisPath(dir, name));
  env->Remove(TablePaths::RowFile(dir, name));
  env->Remove(TablePaths::PaxFile(dir, name));
  // Column files are numbered contiguously from 0; the probe stops at the
  // first gap. Removing from the last one down keeps the survivors of a
  // removal cut short by a crash contiguous, so a later call finds them.
  size_t columns = 0;
  while (FileExists(TablePaths::ColumnFile(dir, name, columns))) ++columns;
  while (columns > 0) env->Remove(TablePaths::ColumnFile(dir, name, --columns));
}

std::vector<FilePartition> PartitionFile(uint64_t file_size, size_t page_bytes,
                                         int k) {
  std::vector<FilePartition> parts;
  if (file_size == 0 || page_bytes == 0) return parts;
  const uint64_t pages = file_size / page_bytes;
  if (pages == 0) {
    // Sub-page file: one partition spanning the fragment.
    parts.push_back(FilePartition{0, 0, 0, file_size});
    return parts;
  }
  const uint64_t want = k < 1 ? 1 : static_cast<uint64_t>(k);
  const uint64_t n = std::min(want, pages);
  const uint64_t base = pages / n;
  const uint64_t extra = pages % n;  // first `extra` partitions get +1 page
  uint64_t page = 0;
  for (uint64_t i = 0; i < n; ++i) {
    FilePartition p;
    p.first_page = page;
    p.num_pages = base + (i < extra ? 1 : 0);
    p.start_offset = p.first_page * page_bytes;
    p.length = p.num_pages * page_bytes;
    page += p.num_pages;
    parts.push_back(p);
  }
  // Trailing partial page (not produced by the bulk loader, but the
  // helper handles arbitrary sizes): the last partition absorbs it.
  parts.back().length += file_size - pages * page_bytes;
  return parts;
}

TableWriter::TableWriter(std::string dir, std::string name, Schema schema,
                         Layout layout, size_t page_size)
    : dir_(std::move(dir)), name_(std::move(name)), schema_(std::move(schema)),
      layout_(layout), page_size_(page_size) {}

TableWriter::~TableWriter() = default;

Result<std::unique_ptr<TableWriter>> TableWriter::Create(
    const std::string& dir, const std::string& name, const Schema& schema,
    Layout layout, size_t page_size) {
  if (page_size < 256) {
    return Status::InvalidArgument("page size too small");
  }
  std::unique_ptr<TableWriter> writer(
      new TableWriter(dir, name, schema, layout, page_size));
  writer->env_ = DurableEnv::Default();
  RODB_RETURN_IF_ERROR(writer->Init());
  return writer;
}

Status TableWriter::Init() {
  const size_t n = schema_.num_attributes();
  dicts_.resize(n);
  stats_.resize(n);
  distinct_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const AttributeDesc& attr = schema_.attribute(i);
    if (attr.codec.kind == CompressionKind::kDict) {
      dicts_[i] = std::make_unique<Dictionary>(attr.width);
    }
  }
  const size_t n_files = layout_ == Layout::kColumn ? n : 1;
  zone_accums_.resize(n_files);
  for (size_t f = 0; f < n_files; ++f) {
    const size_t slots = layout_ == Layout::kColumn ? 1 : n;
    zone_accums_[f].resize(slots);
    for (size_t s = 0; s < slots; ++s) {
      ZoneAccum& acc = zone_accums_[f][s];
      acc.attr = layout_ == Layout::kColumn ? f : s;
      acc.want_bitmap =
          schema_.attribute(acc.attr).codec.kind == CompressionKind::kDict;
    }
  }
  if (layout_ == Layout::kRow) {
    if (schema_.is_compressed()) {
      std::vector<AttributeCodec*> raw_codecs;
      raw_codecs.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const AttributeDesc& attr = schema_.attribute(i);
        RODB_ASSIGN_OR_RETURN(
            std::unique_ptr<AttributeCodec> codec,
            MakeCodec(attr.codec, attr.width, dicts_[i].get()));
        raw_codecs.push_back(codec.get());
        row_attr_codecs_.push_back(std::move(codec));
      }
      row_codec_ = std::make_unique<RowCodec>(std::move(raw_codecs));
    }
    row_builder_ = std::make_unique<RowPageBuilder>(&schema_, row_codec_.get(),
                                                    page_size_);
    RODB_ASSIGN_OR_RETURN(row_file_,
                          env_->Create(TablePaths::RowFile(dir_, name_)));
    return Status::OK();
  }
  if (layout_ == Layout::kPax) {
    std::vector<AttributeCodec*> raw_codecs;
    for (size_t i = 0; i < n; ++i) {
      const AttributeDesc& attr = schema_.attribute(i);
      RODB_ASSIGN_OR_RETURN(std::unique_ptr<AttributeCodec> codec,
                            MakeCodec(attr.codec, attr.width, dicts_[i].get()));
      raw_codecs.push_back(codec.get());
      col_codecs_.push_back(std::move(codec));
    }
    RODB_ASSIGN_OR_RETURN(
        pax_builder_,
        PaxPageBuilder::Make(&schema_, std::move(raw_codecs), page_size_));
    RODB_ASSIGN_OR_RETURN(pax_file_,
                          env_->Create(TablePaths::PaxFile(dir_, name_)));
    return Status::OK();
  }
  // Column layout: one codec + builder + file per attribute.
  col_pages_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const AttributeDesc& attr = schema_.attribute(i);
    RODB_ASSIGN_OR_RETURN(std::unique_ptr<AttributeCodec> codec,
                          MakeCodec(attr.codec, attr.width, dicts_[i].get()));
    col_builders_.push_back(
        std::make_unique<ColumnPageBuilder>(codec.get(), page_size_));
    col_codecs_.push_back(std::move(codec));
    RODB_ASSIGN_OR_RETURN(
        auto file, env_->Create(TablePaths::ColumnFile(dir_, name_, i)));
    col_files_.push_back(std::move(file));
  }
  return Status::OK();
}

void TableWriter::NotePageFlush(size_t file, uint32_t count) {
  // Seal the pending zone of every attribute stored in this file: the
  // accumulators hold exactly the values of the page being flushed.
  for (ZoneAccum& acc : zone_accums_[file]) {
    acc.pages.push_back(acc.zone);
    if (acc.zone.has_values) {
      acc.aggregate.Add(acc.zone.min_key);
      acc.aggregate.Add(acc.zone.max_key);
    }
    if (acc.want_bitmap) {
      acc.page_codes.push_back(std::move(acc.cur_codes));
      acc.cur_codes.clear();
    }
    acc.zone = ZoneEntry{};
  }
  if (page_values_.size() <= file) {
    page_values_.resize(file + 1, 0);
    page_values_uniform_.resize(file + 1, true);
  }
  if (page_values_[file] == 0) {
    page_values_[file] = count;
    return;
  }
  // The trailing partial page flushed by Finish() may hold a *smaller*
  // count without breaking uniformity: scans only ever enter it at its
  // true start position. Any other mismatch makes position -> page
  // arithmetic unsound for this file — including a final page holding
  // MORE values than the established stride, which happens when a codec
  // sealed an earlier page short (e.g. a frame-of-reference rebase) and
  // the remainder packed tighter.
  if (count != page_values_[file] &&
      (!final_flush_ || count > page_values_[file])) {
    page_values_uniform_[file] = false;
  }
}

void TableWriter::AccumulateZoneTuple(const uint8_t* raw_tuple) {
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    AccumulateZoneValue(
        0, i, raw_tuple + static_cast<size_t>(schema_.attr_offset(i)));
  }
}

void TableWriter::AccumulateZoneValue(size_t file, size_t attr,
                                      const uint8_t* value) {
  const size_t slot = layout_ == Layout::kColumn ? 0 : attr;
  ZoneAccum& acc = zone_accums_[file][slot];
  acc.zone.Add(ZoneKeyValue(schema_.attribute(attr), value));
  if (!acc.want_bitmap || acc.bitmap_overflow) return;
  // The builder's codec inserted the value while encoding it, so the
  // lookup cannot miss.
  auto code = dicts_[attr]->Encode(value);
  if (!code.ok() || *code >= kSynopsisDictBitmapCap) {
    acc.bitmap_overflow = true;
    return;
  }
  const size_t word = *code / 64;
  if (acc.cur_codes.size() <= word) acc.cur_codes.resize(word + 1, 0);
  acc.cur_codes[word] |= uint64_t{1} << (*code % 64);
}

Status TableWriter::WriteSynopsis(const TableMeta& meta) {
  TableSynopsis syn;
  syn.num_tuples = num_tuples_;
  syn.files.resize(zone_accums_.size());
  for (size_t f = 0; f < zone_accums_.size(); ++f) {
    FileSynopsis& file = syn.files[f];
    file.file_pages = meta.file_pages[f];
    for (ZoneAccum& acc : zone_accums_[f]) {
      AttrSynopsis out;
      out.attr = static_cast<uint32_t>(acc.attr);
      out.aggregate = acc.aggregate;
      out.pages = std::move(acc.pages);
      if (out.pages.size() != file.file_pages) {
        return Status::Internal("synopsis page count out of step");
      }
      const uint32_t dict_size =
          acc.want_bitmap ? dicts_[acc.attr]->size() : 0;
      if (acc.want_bitmap && !acc.bitmap_overflow &&
          dict_size <= kSynopsisDictBitmapCap) {
        out.bitmap_bits = dict_size;
        const size_t words = out.WordsPerPage();
        out.bitmap_words.assign(words * out.pages.size(), 0);
        for (size_t p = 0; p < acc.page_codes.size(); ++p) {
          std::copy(acc.page_codes[p].begin(), acc.page_codes[p].end(),
                    out.bitmap_words.begin() + p * words);
        }
      }
      file.attrs.push_back(std::move(out));
    }
  }
  std::string blob;
  syn.AppendTo(&blob);
  return DurableWriteFile(SynopsisPath(dir_, name_), blob, env_);
}

Status TableWriter::FlushRowPage() {
  NotePageFlush(0, row_builder_->count());
  RODB_RETURN_IF_ERROR(
      row_builder_->Finish(static_cast<uint32_t>(row_pages_)));
  RODB_RETURN_IF_ERROR(row_file_->Append(row_builder_->data(), page_size_));
  if (FsyncAt(FsyncLevel::kParanoid)) RODB_RETURN_IF_ERROR(row_file_->Sync());
  ++row_pages_;
  row_builder_->Reset();
  return Status::OK();
}

Status TableWriter::FlushPaxPage() {
  NotePageFlush(0, pax_builder_->count());
  RODB_RETURN_IF_ERROR(
      pax_builder_->Finish(static_cast<uint32_t>(pax_pages_)));
  RODB_RETURN_IF_ERROR(pax_file_->Append(pax_builder_->data(), page_size_));
  if (FsyncAt(FsyncLevel::kParanoid)) RODB_RETURN_IF_ERROR(pax_file_->Sync());
  ++pax_pages_;
  pax_builder_->Reset();
  return Status::OK();
}

Status TableWriter::FlushColumnPage(size_t attr) {
  ColumnPageBuilder& builder = *col_builders_[attr];
  NotePageFlush(attr, builder.count());
  RODB_RETURN_IF_ERROR(
      builder.Finish(static_cast<uint32_t>(col_pages_[attr])));
  RODB_RETURN_IF_ERROR(col_files_[attr]->Append(builder.data(), page_size_));
  if (FsyncAt(FsyncLevel::kParanoid)) {
    RODB_RETURN_IF_ERROR(col_files_[attr]->Sync());
  }
  ++col_pages_[attr];
  builder.Reset();
  return Status::OK();
}

void TableWriter::CollectStats(const uint8_t* raw_tuple) {
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    if (schema_.attribute(i).type != AttrType::kInt32) continue;
    const int32_t v =
        LoadLE32s(raw_tuple + static_cast<size_t>(schema_.attr_offset(i)));
    ColumnStats& s = stats_[i];
    if (!s.valid) {
      s.valid = true;
      s.min = s.max = v;
    } else {
      s.min = std::min(s.min, v);
      s.max = std::max(s.max, v);
    }
    if (s.ndv <= ColumnStats::kNdvCap) {
      auto& seen = distinct_[i];
      if (seen.insert(v).second) {
        s.ndv = seen.size() > ColumnStats::kNdvCap ? ColumnStats::kNdvCap + 1
                                                   : seen.size();
        if (seen.size() > ColumnStats::kNdvCap) seen.clear();
      }
    }
  }
}

Status TableWriter::Append(const uint8_t* raw_tuple) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (raw_tuple != nullptr) CollectStats(raw_tuple);
  if (layout_ == Layout::kRow) {
    AppendResult r = row_builder_->Append(raw_tuple);
    if (r == AppendResult::kPageFull) {
      RODB_RETURN_IF_ERROR(FlushRowPage());
      r = row_builder_->Append(raw_tuple);
    }
    if (r != AppendResult::kOk) {
      return Status::InvalidArgument(
          "tuple " + std::to_string(num_tuples_) +
          " not encodable under the schema's compression");
    }
    AccumulateZoneTuple(raw_tuple);
    ++num_tuples_;
    return Status::OK();
  }
  if (layout_ == Layout::kPax) {
    AppendResult r = pax_builder_->Append(raw_tuple);
    if (r == AppendResult::kPageFull) {
      RODB_RETURN_IF_ERROR(FlushPaxPage());
      r = pax_builder_->Append(raw_tuple);
    }
    if (r != AppendResult::kOk) {
      return Status::InvalidArgument(
          "tuple " + std::to_string(num_tuples_) +
          " not encodable under the schema's compression");
    }
    AccumulateZoneTuple(raw_tuple);
    ++num_tuples_;
    return Status::OK();
  }
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    const uint8_t* value =
        raw_tuple + static_cast<size_t>(schema_.attr_offset(i));
    AppendResult r = col_builders_[i]->Append(value);
    if (r == AppendResult::kPageFull) {
      RODB_RETURN_IF_ERROR(FlushColumnPage(i));
      r = col_builders_[i]->Append(value);
    }
    if (r != AppendResult::kOk) {
      return Status::InvalidArgument(
          "value of attribute " + schema_.attribute(i).name + " in tuple " +
          std::to_string(num_tuples_) + " not encodable");
    }
    AccumulateZoneValue(i, i, value);
  }
  ++num_tuples_;
  return Status::OK();
}

Status TableWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  finished_ = true;
  final_flush_ = true;
  TableMeta meta;
  meta.name = name_;
  meta.column_stats = stats_;
  meta.layout = layout_;
  meta.page_size = page_size_;
  meta.num_tuples = num_tuples_;
  meta.schema = schema_;
  // Data files are fully durable before the catalog meta (and hence any
  // manifest) can reference them: fsync each at kCommit+, then close.
  const bool sync_data = FsyncAt(FsyncLevel::kCommit);
  if (layout_ == Layout::kRow) {
    if (row_builder_->count() > 0) RODB_RETURN_IF_ERROR(FlushRowPage());
    if (sync_data) RODB_RETURN_IF_ERROR(row_file_->Sync());
    RODB_RETURN_IF_ERROR(row_file_->Close());
    meta.file_pages.push_back(row_pages_);
    meta.file_bytes.push_back(row_pages_ * page_size_);
  } else if (layout_ == Layout::kPax) {
    if (pax_builder_->count() > 0) RODB_RETURN_IF_ERROR(FlushPaxPage());
    if (sync_data) RODB_RETURN_IF_ERROR(pax_file_->Sync());
    RODB_RETURN_IF_ERROR(pax_file_->Close());
    meta.file_pages.push_back(pax_pages_);
    meta.file_bytes.push_back(pax_pages_ * page_size_);
  } else {
    for (size_t i = 0; i < schema_.num_attributes(); ++i) {
      if (col_builders_[i]->count() > 0) {
        RODB_RETURN_IF_ERROR(FlushColumnPage(i));
      }
      if (sync_data) RODB_RETURN_IF_ERROR(col_files_[i]->Sync());
      RODB_RETURN_IF_ERROR(col_files_[i]->Close());
      meta.file_pages.push_back(col_pages_[i]);
      meta.file_bytes.push_back(col_pages_[i] * page_size_);
    }
  }
  for (size_t i = 0; i < meta.file_pages.size(); ++i) {
    const bool uniform = i < page_values_.size() && page_values_uniform_[i];
    meta.file_page_values.push_back(uniform ? page_values_[i] : 0);
  }
  // Dictionary sidecar: all dictionaries concatenated in attribute order.
  std::string dict_blob;
  for (const auto& dict : dicts_) {
    if (dict != nullptr) dict->AppendTo(&dict_blob);
  }
  if (!dict_blob.empty()) {
    RODB_RETURN_IF_ERROR(
        DurableWriteFile(TablePaths::DictFile(dir_, name_), dict_blob, env_));
  }
  // Zone-map sidecar, then table-level aggregates into the catalog entry.
  RODB_RETURN_IF_ERROR(WriteSynopsis(meta));
  meta.zone_aggregates.resize(schema_.num_attributes());
  for (const auto& file_accums : zone_accums_) {
    for (const ZoneAccum& acc : file_accums) {
      ZoneAggregate& agg = meta.zone_aggregates[acc.attr];
      if (!acc.aggregate.has_values) continue;
      if (!agg.valid) {
        agg.valid = true;
        agg.min_key = acc.aggregate.min_key;
        agg.max_key = acc.aggregate.max_key;
      } else {
        agg.min_key = std::min(agg.min_key, acc.aggregate.min_key);
        agg.max_key = std::max(agg.max_key, acc.aggregate.max_key);
      }
    }
  }
  return Catalog::SaveTableMeta(dir_, meta);
}

}  // namespace rodb
