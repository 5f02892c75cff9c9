#include "metadata/metadata_db.h"

#include <algorithm>

#include "durability/durable_file.h"

namespace mistique {

Result<ColumnKey> ParseColumnKey(const std::string& key) {
  ColumnKey out;
  std::vector<std::string> parts;
  size_t start = 0;
  while (parts.size() < 3) {
    const size_t dot = key.find('.', start);
    if (dot == std::string::npos) break;
    parts.push_back(key.substr(start, dot - start));
    start = dot + 1;
  }
  if (parts.size() != 3 || start >= key.size()) {
    return Status::InvalidArgument(
        "column key must be project.model.intermediate.column, got: " + key);
  }
  out.project = parts[0];
  out.model = parts[1];
  out.intermediate = parts[2];
  out.column = key.substr(start);  // Remainder may itself contain dots.
  if (out.project.empty() || out.model.empty() || out.intermediate.empty()) {
    return Status::InvalidArgument("column key has empty component: " + key);
  }
  return out;
}

Result<ModelId> MetadataDb::RegisterModel(const std::string& project,
                                          const std::string& name,
                                          ModelKind kind) {
  const std::string full = project + "." + name;
  if (by_name_.count(full)) {
    return Status::AlreadyExists("model already registered: " + full);
  }
  const ModelId id = next_id_++;
  ModelInfo info;
  info.id = id;
  info.project = project;
  info.name = name;
  info.kind = kind;
  models_.emplace(id, std::move(info));
  by_name_[full] = id;
  return id;
}

Status MetadataDb::InstallModel(ModelInfo model) {
  const std::string full = model.project + "." + model.name;
  if (by_name_.count(full)) {
    return Status::AlreadyExists("model already registered: " + full);
  }
  if (models_.count(model.id)) {
    return Status::AlreadyExists("model id already in use: " +
                                 std::to_string(model.id));
  }
  if (model.id >= next_id_) next_id_ = model.id + 1;
  by_name_[full] = model.id;
  const ModelId id = model.id;
  models_.emplace(id, std::move(model));
  return Status::OK();
}

Result<ModelInfo*> MetadataDb::GetModel(ModelId id) {
  auto it = models_.find(id);
  if (it == models_.end()) {
    return Status::NotFound("unknown model id " + std::to_string(id));
  }
  return &it->second;
}

Result<const ModelInfo*> MetadataDb::GetModel(ModelId id) const {
  auto it = models_.find(id);
  if (it == models_.end()) {
    return Status::NotFound("unknown model id " + std::to_string(id));
  }
  return &it->second;
}

Result<ModelId> MetadataDb::FindModel(const std::string& project,
                                      const std::string& name) const {
  auto it = by_name_.find(project + "." + name);
  if (it == by_name_.end()) {
    return Status::NotFound("unknown model " + project + "." + name);
  }
  return it->second;
}

Result<IntermediateInfo*> MetadataDb::FindIntermediate(
    ModelId id, const std::string& name) {
  MISTIQUE_ASSIGN_OR_RETURN(ModelInfo * model, GetModel(id));
  for (IntermediateInfo& interm : model->intermediates) {
    if (interm.name == name) return &interm;
  }
  return Status::NotFound("model " + model->name + " has no intermediate " +
                          name);
}

Result<const IntermediateInfo*> MetadataDb::FindIntermediate(
    ModelId id, const std::string& name) const {
  MISTIQUE_ASSIGN_OR_RETURN(const ModelInfo* model, GetModel(id));
  for (const IntermediateInfo& interm : model->intermediates) {
    if (interm.name == name) return &interm;
  }
  return Status::NotFound("model " + model->name + " has no intermediate " +
                          name);
}

Result<MetadataDb::ColumnHandle> MetadataDb::ResolveColumn(
    const ColumnKey& key) const {
  MISTIQUE_ASSIGN_OR_RETURN(ModelId id, FindModel(key.project, key.model));
  MISTIQUE_ASSIGN_OR_RETURN(const ModelInfo* model, GetModel(id));
  for (size_t ii = 0; ii < model->intermediates.size(); ++ii) {
    const IntermediateInfo& interm = model->intermediates[ii];
    if (interm.name != key.intermediate) continue;
    for (size_t ci = 0; ci < interm.columns.size(); ++ci) {
      if (interm.columns[ci].name == key.column) {
        return ColumnHandle{id, ii, ci};
      }
    }
    return Status::NotFound("intermediate " + key.intermediate +
                            " has no column " + key.column);
  }
  return Status::NotFound("model " + key.model + " has no intermediate " +
                          key.intermediate);
}

Status MetadataDb::NoteQuery(ModelId id, const std::string& intermediate_name) {
  MISTIQUE_ASSIGN_OR_RETURN(IntermediateInfo * interm,
                            FindIntermediate(id, intermediate_name));
  interm->n_query++;
  return Status::OK();
}

namespace {

constexpr uint32_t kCatalogMagic = 0x4d51434cu;  // "MQCL"

/// u64 count + the elements' raw bytes (doubles, chunk ids).
template <typename T>
void SaveVector(ByteWriter* w, const std::vector<T>& values) {
  w->PutU64(values.size());
  w->PutRaw(values.data(), values.size() * sizeof(T));
}

template <typename T>
Status LoadVector(ByteReader* r, std::vector<T>* values) {
  uint64_t n = 0;
  MISTIQUE_RETURN_NOT_OK(r->GetU64(&n));
  // Checked before the resize: a corrupt count must neither allocate nor
  // wrap n * sizeof(T) into a small read.
  if (n > r->remaining() / sizeof(T)) {
    return Status::Corruption("catalog vector of " + std::to_string(n) +
                              " elements overruns its " +
                              std::to_string(r->remaining()) + " bytes");
  }
  values->resize(n);
  return r->GetRaw(values->data(), n * sizeof(T));
}

}  // namespace

void SaveIntermediateInfo(ByteWriter* w, const IntermediateInfo& interm) {
  w->PutString(interm.name);
  w->PutI64(interm.stage_index);
  w->PutU64(interm.num_rows);
  w->PutU64(interm.row_block_size);
  w->PutI64(interm.channels);
  w->PutI64(interm.height);
  w->PutI64(interm.width);
  w->PutI64(interm.pool_sigma);
  w->PutU8(static_cast<uint8_t>(interm.scheme));
  w->PutI64(interm.kbits);
  w->PutF64(interm.threshold);
  SaveVector(w, interm.recon.centers);
  SaveVector(w, interm.edges);
  w->PutF64(interm.cum_exec_sec_per_ex);
  w->PutF64(interm.stored_bytes_per_ex);
  w->PutU64(interm.n_query);
  w->PutU64(interm.columns.size());
  for (const ColumnInfo& col : interm.columns) {
    w->PutString(col.name);
    w->PutU8(col.materialized ? 1 : 0);
    w->PutU64(col.encoded_bytes);
    w->PutU64(col.stored_bytes);
    SaveVector(w, col.chunks);
    SaveVector(w, col.chunk_min);
    SaveVector(w, col.chunk_max);
  }
}

Status LoadIntermediateInfo(ByteReader* r, IntermediateInfo* interm) {
  int64_t i64 = 0;
  uint8_t scheme = 0;
  MISTIQUE_RETURN_NOT_OK(r->GetString(&interm->name));
  MISTIQUE_RETURN_NOT_OK(r->GetI64(&i64));
  interm->stage_index = static_cast<int>(i64);
  MISTIQUE_RETURN_NOT_OK(r->GetU64(&interm->num_rows));
  MISTIQUE_RETURN_NOT_OK(r->GetU64(&interm->row_block_size));
  MISTIQUE_RETURN_NOT_OK(r->GetI64(&i64));
  interm->channels = static_cast<int>(i64);
  MISTIQUE_RETURN_NOT_OK(r->GetI64(&i64));
  interm->height = static_cast<int>(i64);
  MISTIQUE_RETURN_NOT_OK(r->GetI64(&i64));
  interm->width = static_cast<int>(i64);
  MISTIQUE_RETURN_NOT_OK(r->GetI64(&i64));
  interm->pool_sigma = static_cast<int>(i64);
  MISTIQUE_RETURN_NOT_OK(r->GetU8(&scheme));
  interm->scheme = static_cast<QuantScheme>(scheme);
  MISTIQUE_RETURN_NOT_OK(r->GetI64(&i64));
  interm->kbits = static_cast<int>(i64);
  MISTIQUE_RETURN_NOT_OK(r->GetF64(&interm->threshold));
  MISTIQUE_RETURN_NOT_OK(LoadVector(r, &interm->recon.centers));
  MISTIQUE_RETURN_NOT_OK(LoadVector(r, &interm->edges));
  MISTIQUE_RETURN_NOT_OK(r->GetF64(&interm->cum_exec_sec_per_ex));
  MISTIQUE_RETURN_NOT_OK(r->GetF64(&interm->stored_bytes_per_ex));
  MISTIQUE_RETURN_NOT_OK(r->GetU64(&interm->n_query));
  uint64_t num_cols = 0;
  MISTIQUE_RETURN_NOT_OK(r->GetU64(&num_cols));
  interm->columns.resize(num_cols);
  for (ColumnInfo& col : interm->columns) {
    uint8_t materialized = 0;
    MISTIQUE_RETURN_NOT_OK(r->GetString(&col.name));
    MISTIQUE_RETURN_NOT_OK(r->GetU8(&materialized));
    col.materialized = materialized != 0;
    MISTIQUE_RETURN_NOT_OK(r->GetU64(&col.encoded_bytes));
    MISTIQUE_RETURN_NOT_OK(r->GetU64(&col.stored_bytes));
    MISTIQUE_RETURN_NOT_OK(LoadVector(r, &col.chunks));
    MISTIQUE_RETURN_NOT_OK(LoadVector(r, &col.chunk_min));
    MISTIQUE_RETURN_NOT_OK(LoadVector(r, &col.chunk_max));
  }
  return Status::OK();
}

void SaveModelInfo(ByteWriter* w, const ModelInfo& model) {
  w->PutU32(model.id);
  w->PutString(model.project);
  w->PutString(model.name);
  w->PutU8(static_cast<uint8_t>(model.kind));
  w->PutF64(model.model_load_sec);
  w->PutU32(static_cast<uint32_t>(model.intermediates.size()));
  for (const IntermediateInfo& interm : model.intermediates) {
    SaveIntermediateInfo(w, interm);
  }
}

Status LoadModelInfo(ByteReader* r, ModelInfo* model) {
  uint8_t kind = 0;
  uint32_t num_interms = 0;
  MISTIQUE_RETURN_NOT_OK(r->GetU32(&model->id));
  MISTIQUE_RETURN_NOT_OK(r->GetString(&model->project));
  MISTIQUE_RETURN_NOT_OK(r->GetString(&model->name));
  MISTIQUE_RETURN_NOT_OK(r->GetU8(&kind));
  MISTIQUE_RETURN_NOT_OK(r->GetF64(&model->model_load_sec));
  MISTIQUE_RETURN_NOT_OK(r->GetU32(&num_interms));
  model->kind = static_cast<ModelKind>(kind);
  model->intermediates.resize(num_interms);
  for (IntermediateInfo& interm : model->intermediates) {
    MISTIQUE_RETURN_NOT_OK(LoadIntermediateInfo(r, &interm));
  }
  return Status::OK();
}

void MetadataDb::Save(ByteWriter* w) const {
  w->PutU32(kCatalogMagic);
  w->PutU32(next_id_);
  w->PutU32(static_cast<uint32_t>(models_.size()));
  for (ModelId id : ListModels()) {
    SaveModelInfo(w, models_.at(id));
  }
}

Status MetadataDb::Load(ByteReader* r) {
  uint32_t magic = 0;
  MISTIQUE_RETURN_NOT_OK(r->GetU32(&magic));
  if (magic != kCatalogMagic) {
    return Status::Corruption("bad catalog magic");
  }
  models_.clear();
  by_name_.clear();
  MISTIQUE_RETURN_NOT_OK(r->GetU32(&next_id_));
  uint32_t num_models = 0;
  MISTIQUE_RETURN_NOT_OK(r->GetU32(&num_models));
  for (uint32_t m = 0; m < num_models; ++m) {
    ModelInfo model;
    MISTIQUE_RETURN_NOT_OK(LoadModelInfo(r, &model));
    const std::string full = model.project + "." + model.name;
    by_name_[full] = model.id;
    models_.emplace(model.id, std::move(model));
  }
  return Status::OK();
}

Status MetadataDb::SaveToFile(const std::string& path, uint64_t epoch,
                              bool sync) const {
  ByteWriter w;
  w.PutU64(epoch);
  Save(&w);
  return WriteEnvelopeFileAtomic(path, w.bytes(), sync, "catalog");
}

Status MetadataDb::LoadFromFile(const std::string& path, uint64_t* epoch) {
  MISTIQUE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                            ReadEnvelopeFile(path));
  ByteReader reader(bytes);
  uint64_t stored_epoch = 0;
  MISTIQUE_RETURN_NOT_OK(reader.GetU64(&stored_epoch));
  if (epoch != nullptr) *epoch = stored_epoch;
  return Load(&reader);
}

Status MetadataDb::RemoveModel(ModelId id) {
  auto it = models_.find(id);
  if (it == models_.end()) {
    return Status::NotFound("unknown model id " + std::to_string(id));
  }
  by_name_.erase(it->second.project + "." + it->second.name);
  models_.erase(it);
  return Status::OK();
}

std::vector<ModelId> MetadataDb::ListModels() const {
  std::vector<ModelId> out;
  out.reserve(models_.size());
  for (const auto& [id, info] : models_) {
    (void)info;
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mistique
